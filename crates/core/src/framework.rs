//! The truly perfect `G`-sampler framework for insertion-only streams
//! (Framework 1.3, Theorem 3.1, Algorithm 2 of the paper).
//!
//! The construction has three moving parts:
//!
//! 1. **Timestamp-based reservoir sampling.** Each of `k` parallel instances
//!    holds one uniformly random stream position (Algorithm 1) together with
//!    the number `c` of occurrences of the sampled item *after* that
//!    position.
//! 2. **Telescoping rejection.** At query time an instance holding item `s`
//!    with suffix count `c` proposes `s` with probability
//!    `(G(c+1) − G(c)) / ζ`. Summed over the `f_s` possible positions, item
//!    `s` is proposed with probability exactly `G(f_s) / (ζ·m)` — so
//!    conditioned on some instance succeeding, the output distribution is
//!    exactly `G(f_i)/F_G`, with zero relative and zero additive error.
//! 3. **A certain normaliser `ζ`.** The rejection step is only valid if
//!    `ζ ≥ G(c+1) − G(c)` with certainty; any *randomised* bound that can
//!    fail would re-introduce additive error. The [`RejectionNormalizer`]
//!    trait abstracts how `ζ` is obtained (a closed-form bound for bounded-
//!    increment measures, a deterministic Misra–Gries bound for `L_p`,
//!    `p > 1`).
//!
//! The reservoir machinery itself — skip-ahead replacement scheduling, the
//! shared suffix-count table giving `O(1)` expected update time, and the
//! amortised batched-update path — lives in the shared
//! [`SkipAheadEngine`] (one engine per
//! sampler here; one per cohort in [`crate::sliding`]). This module is the
//! adapter that adds the `G`-function plumbing: the rejection normaliser is
//! driven alongside the engine's ingestion, and the query path runs the
//! engine's first-success scan with the telescoping acceptance probability
//! `(G(c+1) − G(c)) / ζ`.

use crate::engine::SkipAheadEngine;
use tps_random::StreamRng;
use tps_sketches::MisraGries;
use tps_streams::codec::{self, CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
use tps_streams::{Item, MeasureFn, MergeableSampler, SampleOutcome, SpaceUsage, StreamSampler};

pub use crate::engine::skip_ahead_replacement;

/// A source of the rejection normaliser `ζ`.
///
/// Implementations must guarantee — with certainty, not merely with high
/// probability — that `ζ ≥ G(x) − G(x−1)` for every frequency `x` that can
/// occur in the stream processed so far.
pub trait RejectionNormalizer {
    /// Observes one stream update (so deterministic summaries can be
    /// maintained).
    fn observe(&mut self, item: Item);

    /// Observes a run of `count` consecutive occurrences of `item`.
    ///
    /// The batch engine run-length-compresses each drained chunk once and
    /// drives the normaliser and the shared suffix-count table from the
    /// same runs; overrides must be exactly equivalent to `count` sequential
    /// [`RejectionNormalizer::observe`] calls.
    fn observe_run(&mut self, item: Item, count: u64) {
        for _ in 0..count {
            self.observe(item);
        }
    }

    /// The current certain bound `ζ` given that `processed` updates have
    /// been seen.
    fn zeta(&self, processed: u64) -> f64;

    /// Merges two normalisers into one whose `ζ` is a certain bound for the
    /// concatenation of the two observed streams (this is what makes
    /// [`TrulyPerfectGSampler`] a
    /// [`MergeableSampler`]). Certainty must
    /// be preserved: the merged bound may be looser, never invalid.
    fn merge(self, other: Self) -> Self
    where
        Self: Sized;

    /// Whether [`RejectionNormalizer::merge`] accepts these two instances
    /// (the non-panicking pre-check restored-from-snapshot state is run
    /// through; must be `false` whenever `merge` would panic). Required —
    /// not defaulted — for the same reason as
    /// [`tps_streams::MergeableSampler::merge_compatible`]: a new
    /// normaliser must opt in to the decode-time guard explicitly.
    fn merge_compatible(&self, other: &Self) -> bool;

    /// Memory used by the normaliser.
    fn normalizer_space_bytes(&self) -> usize;
}

/// The closed-form normaliser: `ζ = G.increment_bound(m)` where `m` is the
/// stream length so far.
///
/// Appropriate for measures whose increments are bounded by a constant
/// independent of the frequencies (all the M-estimators of Corollary 3.6 and
/// `L_p` with `p ≤ 1`).
#[derive(Debug, Clone)]
pub struct MeasureNormalizer<G: MeasureFn> {
    g: G,
}

impl<G: MeasureFn> MeasureNormalizer<G> {
    /// Creates the normaliser for a measure.
    pub fn new(g: G) -> Self {
        Self { g }
    }

    /// The measure whose increment bound this normaliser certifies (used
    /// by decode-time configuration cross-checks).
    pub fn measure(&self) -> &G {
        &self.g
    }
}

impl<G: MeasureFn> RejectionNormalizer for MeasureNormalizer<G> {
    fn observe(&mut self, _item: Item) {}

    fn observe_run(&mut self, _item: Item, _count: u64) {}

    fn zeta(&self, processed: u64) -> f64 {
        self.g.increment_bound(processed.max(1))
    }

    /// Stateless: the closed-form bound depends only on the total processed
    /// count, which the engine already sums at merge time.
    fn merge(self, _other: Self) -> Self {
        self
    }

    /// Stateless beyond its measure, which the owning sampler compares
    /// (`G: PartialEq`) — the normaliser itself is always mergeable.
    fn merge_compatible(&self, _other: &Self) -> bool {
        true
    }

    fn normalizer_space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Wire format: the measure only (the closed-form normaliser is stateless
/// beyond its `G`).
impl<G: MeasureFn + Snapshot> Snapshot for MeasureNormalizer<G> {
    const TAG: u16 = codec::tag::MEASURE_NORMALIZER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        self.g.encode_into(w);
    }
}

impl<G: MeasureFn + Restore> Restore for MeasureNormalizer<G> {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        Ok(Self {
            g: G::decode_from(r)?,
        })
    }
}

/// The deterministic Misra–Gries normaliser used by the `L_p` samplers for
/// `p ∈ (1, 2]` (Theorem 3.4): `ζ = p·Z^{p−1}` where
/// `‖f‖_∞ ≤ Z ≤ ‖f‖_∞ + m/(capacity+1)` is certain.
#[derive(Debug, Clone)]
pub struct MisraGriesNormalizer {
    p: f64,
    summary: MisraGries,
}

impl MisraGriesNormalizer {
    /// Creates the normaliser with the given exponent and counter budget.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [1, 2]`.
    pub fn new(p: f64, counters: usize) -> Self {
        assert!(
            (1.0..=2.0).contains(&p),
            "Misra-Gries normaliser requires p in [1,2]"
        );
        Self {
            p,
            summary: MisraGries::new(counters.max(1)),
        }
    }

    /// The current certain upper bound `Z ≥ ‖f‖_∞`.
    pub fn max_frequency_bound(&self) -> u64 {
        self.summary.max_frequency_upper_bound()
    }

    /// The exponent `p` this normaliser certifies bounds for.
    pub fn exponent(&self) -> f64 {
        self.p
    }
}

impl RejectionNormalizer for MisraGriesNormalizer {
    fn observe(&mut self, item: Item) {
        self.summary.update(item);
    }

    fn observe_run(&mut self, item: Item, count: u64) {
        self.summary.update_run(item, count);
    }

    fn zeta(&self, _processed: u64) -> f64 {
        let z = self.max_frequency_bound().max(1) as f64;
        self.p * z.powf(self.p - 1.0)
    }

    /// Misra–Gries summaries merge with additive error bounds
    /// ([`MisraGries`]'s `merge`), so the merged `Z` stays a certain upper
    /// bound on `‖f‖_∞` of the concatenated stream.
    fn merge(self, other: Self) -> Self {
        assert!(
            (self.p - other.p).abs() < 1e-12,
            "merging Misra-Gries normalisers requires equal exponents"
        );
        Self {
            p: self.p,
            summary: tps_streams::MergeableSummary::merge(self.summary, other.summary),
        }
    }

    fn merge_compatible(&self, other: &Self) -> bool {
        (self.p - other.p).abs() < 1e-12 && self.summary.capacity() == other.summary.capacity()
    }

    fn normalizer_space_bytes(&self) -> usize {
        self.summary.space_bytes()
    }
}

/// Wire format: the exponent `p` and the Misra–Gries summary.
impl Snapshot for MisraGriesNormalizer {
    const TAG: u16 = codec::tag::MISRA_GRIES_NORMALIZER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_f64(self.p);
        self.summary.encode_into(w);
    }
}

impl Restore for MisraGriesNormalizer {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let p = r.get_f64()?;
        if !(1.0..=2.0).contains(&p) {
            return Err(CodecError::InvalidValue {
                what: "Misra-Gries normaliser exponent outside [1, 2]",
            });
        }
        Ok(Self {
            p,
            summary: MisraGries::decode_from(r)?,
        })
    }
}

/// The generic truly perfect `G`-sampler for insertion-only streams: the
/// shared skip-ahead reservoir engine plus a measure `G` and its rejection
/// normaliser.
#[derive(Debug, Clone)]
pub struct TrulyPerfectGSampler<G: MeasureFn, N: RejectionNormalizer> {
    g: G,
    normalizer: N,
    engine: SkipAheadEngine,
}

impl<G: MeasureFn, N: RejectionNormalizer> TrulyPerfectGSampler<G, N> {
    /// Creates a sampler with an explicit number of parallel instances.
    ///
    /// # Panics
    ///
    /// Panics if `instances == 0`.
    pub fn with_instances(g: G, normalizer: N, instances: usize, seed: u64) -> Self {
        Self {
            g,
            normalizer,
            engine: SkipAheadEngine::with_seed(instances, seed),
        }
    }

    /// Number of parallel instances.
    pub fn instance_count(&self) -> usize {
        self.engine.slot_count()
    }

    /// Number of updates processed.
    pub fn processed(&self) -> u64 {
        self.engine.seen()
    }

    /// The measure function being sampled.
    pub fn measure(&self) -> &G {
        &self.g
    }

    /// Read access to the normaliser (used by the ablation experiments).
    pub fn normalizer(&self) -> &N {
        &self.normalizer
    }

    /// The number of distinct items currently tracked by the shared
    /// suffix-count table (a space diagnostic).
    pub fn tracked_items(&self) -> usize {
        self.engine.tracked_items()
    }

    /// One proposal round over all instances; returns the first acceptance.
    ///
    /// Rejection coins are drawn from the engine's RNG, continuing the
    /// update path's draw sequence (first-success aggregation; instances
    /// are i.i.d., so conditioning on which one succeeds does not change
    /// the conditional output distribution).
    fn propose(&mut self) -> SampleOutcome {
        if self.engine.seen() == 0 {
            return SampleOutcome::Empty;
        }
        let zeta = self.normalizer.zeta(self.engine.seen());
        // NaN or non-positive ζ means the normaliser cannot certify any
        // rejection probability: fail rather than emit a biased sample.
        if zeta.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return SampleOutcome::Fail;
        }
        let g = &self.g;
        let accepted = self.engine.first_accepted(|_, c| {
            let accept = (g.value(c + 1) - g.value(c)) / zeta;
            debug_assert!(
                accept <= 1.0 + 1e-9,
                "rejection probability {accept} exceeds 1: the normaliser is not a certain bound"
            );
            accept
        });
        match accepted {
            Some(item) => SampleOutcome::Index(item),
            None => SampleOutcome::Fail,
        }
    }
}

/// Distributional mergeability (the sharded scatter-gather contract, see
/// [`tps_streams::merge`]): the engine draws the combined reservoir from
/// the two inputs weighted by admitted counts, and the normalisers merge
/// into a certain bound for the combined stream. Exact for item-disjoint
/// (hash-partitioned) inputs and for constant-increment measures under any
/// partitioning; callers are responsible for merging samplers built over
/// the same measure `G`.
impl<G: MeasureFn, N: RejectionNormalizer> MergeableSampler for TrulyPerfectGSampler<G, N> {
    fn merge(self, other: Self, rng: &mut dyn StreamRng) -> Self {
        assert_eq!(
            self.instance_count(),
            other.instance_count(),
            "merging G-samplers requires equal instance counts"
        );
        Self {
            g: self.g,
            normalizer: self.normalizer.merge(other.normalizer),
            engine: self.engine.merge(other.engine, rng),
        }
    }

    fn merge_compatible(&self, other: &Self) -> bool {
        self.g == other.g
            && self.instance_count() == other.instance_count()
            && self.normalizer.merge_compatible(&other.normalizer)
    }
}

impl<G: MeasureFn, N: RejectionNormalizer> StreamSampler for TrulyPerfectGSampler<G, N> {
    fn update(&mut self, item: Item) {
        self.engine.update(item);
        self.normalizer.observe(item);
    }

    /// The amortised batch path: the engine splits the batch at scheduled
    /// replacement positions and drains the intervening chunks in one fused
    /// run-length pass that drives the shared suffix-count table and the
    /// rejection normaliser together ([`RejectionNormalizer::observe_run`]).
    /// The resulting state — including the RNG position — is bit-identical
    /// to the per-item loop's (the engine's batch ≡ loop law).
    fn update_batch(&mut self, items: &[Item]) {
        let normalizer = &mut self.normalizer;
        self.engine
            .update_batch_with(items, |item, count| normalizer.observe_run(item, count));
    }

    fn sample(&mut self) -> SampleOutcome {
        self.propose()
    }
}

/// Wire format: measure, normaliser, engine — the sampler's complete
/// state, so restore-then-continue (or restore-then-merge on another
/// machine, the sharded scatter-gather contract) is indistinguishable from
/// never having stopped.
impl<G, N> Snapshot for TrulyPerfectGSampler<G, N>
where
    G: MeasureFn + Snapshot,
    N: RejectionNormalizer + Snapshot,
{
    const TAG: u16 = codec::tag::G_SAMPLER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        self.g.encode_into(w);
        self.normalizer.encode_into(w);
        self.engine.encode_into(w);
    }
}

impl<G, N> Restore for TrulyPerfectGSampler<G, N>
where
    G: MeasureFn + Restore,
    N: RejectionNormalizer + Restore,
{
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        Ok(Self {
            g: G::decode_from(r)?,
            normalizer: N::decode_from(r)?,
            engine: SkipAheadEngine::decode_from(r)?,
        })
    }
}

impl<G: MeasureFn, N: RejectionNormalizer> SpaceUsage for TrulyPerfectGSampler<G, N> {
    fn space_bytes(&self) -> usize {
        // `size_of::<Self>` already covers the engine's inline header, which
        // `engine.space_bytes()` counts again; subtract one copy.
        std::mem::size_of::<Self>() - std::mem::size_of::<SkipAheadEngine>()
            + self.engine.space_bytes()
            + self.normalizer.normalizer_space_bytes()
    }
}

/// The number of parallel instances Theorem 3.1 prescribes for a target
/// failure probability `δ`, given a certain lower bound on the per-instance
/// success probability `F̂_G / (ζ·m)` computed from the measure's worst-case
/// bounds at an anticipated stream length.
pub fn recommended_instances<G: MeasureFn>(g: &G, expected_length: u64, delta: f64) -> usize {
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    let m = expected_length.max(1);
    let zeta = g.increment_bound(m).max(f64::MIN_POSITIVE);
    let fg = g.fg_lower_bound(m).max(f64::MIN_POSITIVE);
    let per_instance = (fg / (zeta * m as f64)).clamp(1e-12, 1.0);
    if per_instance >= 1.0 {
        return 1;
    }
    (delta.ln() / (1.0 - per_instance).ln()).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_streams::frequency::FrequencyVector;
    use tps_streams::stats::SampleHistogram;
    use tps_streams::{Huber, Lp, L1L2};

    fn run_distribution_check<G: MeasureFn + 'static>(
        g: G,
        instances: usize,
        stream: &[Item],
        trials: usize,
        tolerance: f64,
        max_fail_rate: f64,
    ) {
        let truth = FrequencyVector::from_stream(stream);
        let target = truth.g_distribution(&g);
        let mut histogram = SampleHistogram::new();
        for seed in 0..trials as u64 {
            let normalizer = MeasureNormalizer::new(g.clone());
            let mut sampler = TrulyPerfectGSampler::with_instances(
                g.clone(),
                normalizer,
                instances,
                1_000 + seed,
            );
            sampler.update_all(stream);
            histogram.record(sampler.sample());
        }
        assert!(
            histogram.fail_rate() <= max_fail_rate,
            "fail rate {} too high",
            histogram.fail_rate()
        );
        let tv = histogram.tv_distance(&target);
        assert!(
            tv < tolerance,
            "TV distance {tv} exceeds tolerance {tolerance}"
        );
    }

    #[test]
    fn l1_sampler_matches_frequency_distribution() {
        let stream: Vec<Item> = [(1u64, 8u64), (2, 4), (3, 2), (4, 1)]
            .iter()
            .flat_map(|&(i, c)| std::iter::repeat_n(i, c as usize))
            .collect();
        run_distribution_check(Lp::new(1.0), 1, &stream, 6_000, 0.03, 0.0);
    }

    #[test]
    fn huber_sampler_matches_g_distribution() {
        let stream: Vec<Item> = [(10u64, 12u64), (20, 6), (30, 3), (40, 1)]
            .iter()
            .flat_map(|&(i, c)| std::iter::repeat_n(i, c as usize))
            .collect();
        run_distribution_check(Huber::new(2.0), 16, &stream, 6_000, 0.04, 0.2);
    }

    #[test]
    fn l1l2_sampler_matches_g_distribution() {
        let stream: Vec<Item> = [(5u64, 10u64), (6, 5), (7, 1)]
            .iter()
            .flat_map(|&(i, c)| std::iter::repeat_n(i, c as usize))
            .collect();
        run_distribution_check(L1L2, 16, &stream, 6_000, 0.04, 0.2);
    }

    #[test]
    fn empty_stream_reports_empty() {
        let g = Lp::new(1.0);
        let mut sampler = TrulyPerfectGSampler::with_instances(g, MeasureNormalizer::new(g), 4, 7);
        assert_eq!(sampler.sample(), SampleOutcome::Empty);
    }

    #[test]
    fn misra_gries_normalizer_bounds_increments() {
        let mut norm = MisraGriesNormalizer::new(2.0, 8);
        let stream: Vec<Item> = (0..2_000u64)
            .map(|i| if i % 3 == 0 { 1 } else { i })
            .collect();
        for &x in &stream {
            norm.observe(x);
        }
        let truth = FrequencyVector::from_stream(&stream);
        let max_f = truth.l_inf();
        let zeta = norm.zeta(stream.len() as u64);
        // Every achievable increment for G(x) = x^2 is at most 2·‖f‖_∞.
        let largest_increment = (max_f as f64).powi(2) - ((max_f - 1) as f64).powi(2);
        assert!(
            zeta >= largest_increment,
            "zeta {zeta} < largest increment {largest_increment}"
        );
        assert!(norm.max_frequency_bound() >= max_f);
    }

    #[test]
    fn shared_table_is_garbage_collected() {
        let g = Lp::new(1.0);
        let mut sampler = TrulyPerfectGSampler::with_instances(g, MeasureNormalizer::new(g), 8, 9);
        for t in 0..20_000u64 {
            sampler.update(t % 97);
        }
        // At most one tracked item per instance once the stream is long.
        assert!(
            sampler.tracked_items() <= 8,
            "tracked {}",
            sampler.tracked_items()
        );
    }

    #[test]
    fn recommended_instances_scale_with_measure() {
        // Constant-increment measures need O(log 1/δ) instances.
        let huber = recommended_instances(&Huber::new(2.0), 100_000, 0.01);
        assert!(huber <= 80, "Huber instance count {huber}");
        // L_p with p = 0.5 needs about m^{1/2} instances.
        let half = recommended_instances(&Lp::new(0.5), 10_000, 0.5);
        assert!((50..=500).contains(&half), "L_0.5 instance count {half}");
        // More stringent delta needs more instances.
        assert!(
            recommended_instances(&Huber::new(2.0), 100_000, 0.001)
                > recommended_instances(&Huber::new(2.0), 100_000, 0.1)
        );
    }

    #[test]
    fn sampler_never_outputs_absent_items() {
        let g = Lp::new(1.0);
        for seed in 0..200 {
            let mut sampler =
                TrulyPerfectGSampler::with_instances(g, MeasureNormalizer::new(g), 2, seed);
            sampler.update_all(&[11, 22, 33]);
            if let SampleOutcome::Index(i) = sampler.sample() {
                assert!([11, 22, 33].contains(&i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one sampler instance")]
    fn zero_instances_panics() {
        let g = Lp::new(1.0);
        let _ = TrulyPerfectGSampler::with_instances(g, MeasureNormalizer::new(g), 0, 1);
    }
}
