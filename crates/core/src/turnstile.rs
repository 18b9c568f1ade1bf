//! Turnstile-stream results: the Ω(min{n, log 1/γ}) lower bound machinery
//! (Section 2 / Theorem 1.2), the multi-pass strict-turnstile samplers
//! (Theorem 1.5) and the strict-turnstile `F_0` sampler (Theorem D.3).
//!
//! Theorem 1.2 shows that a one-pass sublinear-space *truly* perfect sampler
//! cannot exist in the (general) turnstile model: a `(ε, γ, 1/2)`-sampler
//! yields a two-party protocol for `equality` with advantage related to `γ`,
//! and the fine-grained refutation complexity of equality forces
//! `Ω(min{n, log 1/γ})` bits. [`EqualityReduction`] implements that
//! protocol and measures the distinguishing advantage empirically; the
//! companion [`lower_bound_bits`] evaluates the bound itself.
//!
//! The positive results avoid the lower bound by changing the model:
//!
//! * [`MultiPassL1Sampler`] / [`MultiPassLpSampler`] give *truly perfect*
//!   `L_p` samples over **strict turnstile** streams using `O(1/γ)` passes
//!   and `Õ(n^γ)`-type space (Theorem 1.5): recursively partition the
//!   universe into `n^γ` chunks, keep one exact counter per chunk per pass,
//!   and descend into a chunk chosen with probability proportional to its
//!   (non-negative) mass.
//! * [`StrictTurnstileF0Sampler`] combines deterministic sparse recovery
//!   with a pre-drawn random subset to sample the support of a strict
//!   turnstile stream in `Õ(√n)` space (Theorem D.3).

use std::collections::{HashMap, HashSet};
use tps_random::{random_subset, StreamRng, Xoshiro256};
use tps_sketches::SparseRecovery;
use tps_streams::codec::{self, CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
use tps_streams::frequency::FrequencyVector;
use tps_streams::generators::EqualityInstance;
use tps_streams::space::{hashmap_bytes, hashset_bytes};
use tps_streams::{
    Item, MergeableSampler, SampleOutcome, SignedUpdate, SpaceUsage, TurnstileSampler,
};

/// The space lower bound of Theorem 1.2, in bits:
/// `Ω(min{n, log₂ 1/γ})` for any `(ε₀, γ, 1/2)`-approximate `G`-sampler in
/// the turnstile model. The constant is taken as 1/8·(effective instance
/// size − 7), following the proof.
pub fn lower_bound_bits(n: u64, gamma: f64) -> f64 {
    assert!(
        gamma > 0.0 && gamma < 0.25,
        "the bound is stated for gamma in (0, 1/4)"
    );
    let effective = (n as f64 / 2.0).min((1.0 / (16.0 * gamma)).log2());
    ((effective - 7.0) / 128.0).max(0.0)
}

/// Statistics of one multi-pass sampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassReport {
    /// Number of passes over the stream that were needed.
    pub passes: usize,
    /// Maximum number of live counters across all passes (the space term).
    pub peak_counters: usize,
}

/// A truly perfect multi-pass `L_1` sampler for strict turnstile streams
/// (the core of Theorem 1.5).
#[derive(Debug, Clone)]
pub struct MultiPassL1Sampler {
    universe: u64,
    /// Number of chunks per pass, `≈ n^γ`.
    chunks_per_pass: usize,
}

impl MultiPassL1Sampler {
    /// Creates the sampler with `chunks_per_pass ≈ universe^gamma` chunks
    /// per level.
    ///
    /// # Panics
    ///
    /// Panics unless `universe ≥ 1` and `gamma ∈ (0, 1]`.
    pub fn new(universe: u64, gamma: f64) -> Self {
        assert!(universe >= 1, "universe must be non-empty");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0,1]");
        let chunks = (universe as f64).powf(gamma).ceil().max(2.0) as usize;
        Self {
            universe,
            chunks_per_pass: chunks,
        }
    }

    /// Number of chunks maintained per pass.
    pub fn chunks_per_pass(&self) -> usize {
        self.chunks_per_pass
    }

    /// Draws one truly perfect `L_1` sample by making `O(log_chunks n)`
    /// passes over the (replayable) stream.
    ///
    /// Returns the sample (or `Empty` for a zero vector) and the pass
    /// statistics.
    pub fn sample<R: StreamRng>(
        &self,
        stream: &[SignedUpdate],
        rng: &mut R,
    ) -> (SampleOutcome, PassReport) {
        let mut low = 0u64;
        let mut high = self.universe; // current candidate range [low, high)
        let mut passes = 0usize;
        let mut peak = 0usize;
        while high - low > 1 {
            let span = high - low;
            let chunks = (self.chunks_per_pass as u64).min(span);
            let chunk_width = span.div_ceil(chunks);
            let mut masses = vec![0i64; chunks as usize];
            // One pass: accumulate the mass of each chunk of the range.
            passes += 1;
            peak = peak.max(masses.len());
            for update in stream {
                if update.item >= low && update.item < high {
                    let chunk = ((update.item - low) / chunk_width) as usize;
                    masses[chunk] += update.delta;
                }
            }
            debug_assert!(
                masses.iter().all(|&m| m >= 0),
                "strict turnstile streams must have non-negative chunk masses"
            );
            let total: i64 = masses.iter().sum();
            if total <= 0 {
                return (
                    SampleOutcome::Empty,
                    PassReport {
                        passes,
                        peak_counters: peak,
                    },
                );
            }
            // Choose a chunk with probability proportional to its mass.
            let mut target = rng.gen_range(total as u64) as i64;
            let mut chosen = 0usize;
            for (idx, &mass) in masses.iter().enumerate() {
                if target < mass {
                    chosen = idx;
                    break;
                }
                target -= mass;
            }
            low += chosen as u64 * chunk_width;
            high = (low + chunk_width).min(high);
        }
        (
            SampleOutcome::Index(low),
            PassReport {
                passes,
                peak_counters: peak,
            },
        )
    }
}

/// A truly perfect multi-pass `L_p` sampler (`p ∈ [1, 2]`) for strict
/// turnstile streams (Theorem 1.5): draw `L_1` candidates with the
/// multi-pass sampler, determine their exact frequencies and a certain
/// upper bound on `‖f‖_∞` in one extra pass, and accept each candidate with
/// probability `(f_i/Z)^{p−1}`.
#[derive(Debug, Clone)]
pub struct MultiPassLpSampler {
    p: f64,
    l1: MultiPassL1Sampler,
    candidates: usize,
}

impl MultiPassLpSampler {
    /// Creates the sampler with the given exponent, universe, pass/space
    /// trade-off `gamma` and failure probability `delta`.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [1, 2]`, `universe ≥ 1`, `gamma ∈ (0, 1]` and
    /// `δ ∈ (0, 1)`.
    pub fn new(p: f64, universe: u64, gamma: f64, delta: f64) -> Self {
        assert!((1.0..=2.0).contains(&p), "p must be in [1,2]");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let pool = (universe as f64).powf(1.0 - 1.0 / p).max(1.0);
        let per_candidate = (1.0 / pool).min(1.0);
        let candidates = if per_candidate >= 1.0 {
            1
        } else {
            (delta.ln() / (1.0 - per_candidate).ln()).ceil().max(1.0) as usize
        };
        Self {
            p,
            l1: MultiPassL1Sampler::new(universe, gamma),
            candidates,
        }
    }

    /// Number of `L_1` candidates drawn per sample attempt.
    pub fn candidates(&self) -> usize {
        self.candidates
    }

    /// Draws one truly perfect `L_p` sample over the replayable strict
    /// turnstile stream.
    pub fn sample<R: StreamRng>(
        &self,
        stream: &[SignedUpdate],
        rng: &mut R,
    ) -> (SampleOutcome, PassReport) {
        let mut passes = 0usize;
        let mut peak = 0usize;
        // Draw the candidates (their passes are counted; a production
        // implementation would interleave them within shared passes, which
        // changes the constant but not the O(1/γ) pass count).
        let mut drawn = Vec::with_capacity(self.candidates);
        for _ in 0..self.candidates {
            let (outcome, report) = self.l1.sample(stream, rng);
            passes = passes.max(report.passes);
            peak = peak.max(report.peak_counters * self.candidates);
            match outcome {
                SampleOutcome::Index(i) => drawn.push(i),
                SampleOutcome::Empty => {
                    return (
                        SampleOutcome::Empty,
                        PassReport {
                            passes,
                            peak_counters: peak,
                        },
                    )
                }
                SampleOutcome::Fail => {}
            }
        }
        // One extra pass: exact frequencies of the candidates and a certain
        // upper bound Z ≥ ‖f‖_∞ from chunk masses of width ≈ n^{1/p}.
        passes += 1;
        let chunk_width = (self.l1.universe as f64).powf(1.0 / self.p).ceil().max(1.0) as u64;
        let chunk_count = self.l1.universe.div_ceil(chunk_width) as usize;
        let mut chunk_mass = vec![0i64; chunk_count];
        let mut exact: HashMap<Item, i64> = drawn.iter().map(|&i| (i, 0)).collect();
        peak = peak.max(chunk_count + exact.len());
        for update in stream {
            if update.item >= self.l1.universe {
                continue;
            }
            chunk_mass[(update.item / chunk_width) as usize] += update.delta;
            if let Some(count) = exact.get_mut(&update.item) {
                *count += update.delta;
            }
        }
        let z = chunk_mass.iter().copied().max().unwrap_or(0).max(1) as f64;
        for candidate in drawn {
            let f = exact[&candidate].max(0) as f64;
            let accept = (f / z).powf(self.p - 1.0).min(1.0);
            if rng.gen_bool(accept) {
                return (
                    SampleOutcome::Index(candidate),
                    PassReport {
                        passes,
                        peak_counters: peak,
                    },
                );
            }
        }
        (
            SampleOutcome::Fail,
            PassReport {
                passes,
                peak_counters: peak,
            },
        )
    }
}

/// The strict-turnstile truly perfect `F_0` sampler of Theorem D.3:
/// deterministic sparse recovery for small supports, a pre-drawn random
/// subset with exact membership counters for large supports.
#[derive(Debug, Clone)]
pub struct StrictTurnstileF0Sampler {
    recovery: SparseRecovery,
    subset: HashSet<Item>,
    subset_counts: HashMap<Item, i64>,
    processed: u64,
    rng: Xoshiro256,
}

impl StrictTurnstileF0Sampler {
    /// Creates the sampler over the universe `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n >= 1, "universe must be non-empty");
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let sqrt_n = (n as f64).sqrt().ceil() as usize;
        let subset = random_subset(&mut rng, n, (2 * sqrt_n).min(n as usize));
        Self {
            recovery: SparseRecovery::new(sqrt_n.max(1), n),
            subset,
            subset_counts: HashMap::new(),
            processed: 0,
            rng,
        }
    }

    /// The universe size `n`.
    pub fn universe(&self) -> u64 {
        self.recovery.universe()
    }

    /// Number of updates processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

/// Merge with concatenation semantics, by pure linearity: the syndrome
/// vector adds componentwise ([`SparseRecovery::absorb`]) and the subset
/// counters add with zero entries dropped — exactly the state sequential
/// ingestion of the concatenated stream would reach, because every piece of
/// the sampler's update path is additive in the deltas and **no randomness
/// is consumed during updates** (the RNG only moves at `sample()` time).
///
/// Consequently the merge is **byte-exact for same-seed instances under
/// *any* partitioning of the update sequence** — stronger than the
/// insertion-only `F_0` sampler's item-disjoint requirement. The sharded
/// front-end still routes turnstile streams by hash, like every other
/// kind. Merging consumes no coins.
///
/// # Panics
///
/// Panics if the universes, sparsity budgets or pre-drawn subsets differ
/// (instances must be built with the same seed).
impl MergeableSampler for StrictTurnstileF0Sampler {
    fn merge(mut self, other: Self, _rng: &mut dyn StreamRng) -> Self {
        assert!(
            self.recovery.merge_compatible(&other.recovery),
            "merging turnstile F0 samplers requires equal universes and sparsity budgets"
        );
        assert_eq!(
            self.subset, other.subset,
            "merging turnstile F0 samplers requires shard instances built with the same seed"
        );
        self.recovery.absorb(&other.recovery);
        self.processed += other.processed;
        for (item, delta) in other.subset_counts {
            let entry = self.subset_counts.entry(item).or_insert(0);
            *entry = entry.wrapping_add(delta);
            if *entry == 0 {
                self.subset_counts.remove(&item);
            }
        }
        self
    }

    fn merge_compatible(&self, other: &Self) -> bool {
        self.recovery.merge_compatible(&other.recovery) && self.subset == other.subset
    }
}

/// Wire format: update count, RNG position, the sparse-recovery component,
/// the pre-drawn subset (sorted), then the live subset counters sorted by
/// item (signed counts, two's-complement).
impl Snapshot for StrictTurnstileF0Sampler {
    const TAG: u16 = codec::tag::TURNSTILE_F0_SAMPLER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_u64(self.processed);
        self.rng.encode_into(w);
        self.recovery.encode_into(w);
        codec::put_sorted_u64_set(w, self.subset.iter().copied());
        let mut counts: Vec<(Item, i64)> =
            self.subset_counts.iter().map(|(&i, &c)| (i, c)).collect();
        counts.sort_unstable_by_key(|&(i, _)| i);
        w.put_len(counts.len());
        for (item, count) in counts {
            w.put_u64(item);
            w.put_i64(count);
        }
    }
}

impl Restore for StrictTurnstileF0Sampler {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let processed = r.get_u64()?;
        let rng = Xoshiro256::decode_from(r)?;
        let recovery = SparseRecovery::decode_from(r)?;
        let universe = recovery.universe();
        let sorted = codec::get_sorted_u64_set(r)?;
        // The subset is drawn from [0, universe); sorted, so the last
        // element bounds them all.
        if sorted.last().is_some_and(|&max| max >= universe) {
            return Err(CodecError::InvalidValue {
                what: "pre-drawn subset member outside the universe",
            });
        }
        let subset: HashSet<Item> = sorted.into_iter().collect();
        let len = r.get_len(16)?;
        let mut subset_counts = HashMap::with_capacity(len);
        let mut previous: Option<Item> = None;
        for _ in 0..len {
            let item = r.get_u64()?;
            let count = r.get_i64()?;
            // Canonical: strictly ascending items (distinct for free), keys
            // inside the pre-drawn subset, zero entries never stored.
            if previous.is_some_and(|p| p >= item) || count == 0 || !subset.contains(&item) {
                return Err(CodecError::InvalidValue {
                    what: "subset counters must be ascending subset members with nonzero counts",
                });
            }
            previous = Some(item);
            subset_counts.insert(item, count);
        }
        Ok(Self {
            recovery,
            subset,
            subset_counts,
            processed,
            rng,
        })
    }
}

impl TurnstileSampler for StrictTurnstileF0Sampler {
    fn update(&mut self, update: SignedUpdate) {
        self.processed += 1;
        self.recovery.update(update);
        if self.subset.contains(&update.item) {
            let entry = self.subset_counts.entry(update.item).or_insert(0);
            *entry += update.delta;
            if *entry == 0 {
                self.subset_counts.remove(&update.item);
            }
        }
    }

    /// Amortised batch path: coalesces the batch to one net delta per item
    /// (first-occurrence order), then applies each with a single `O(k)`
    /// syndrome pass instead of one per update. Everything `update`
    /// touches is additive in the delta — the field syndromes via
    /// [`SparseRecovery::update_coalesced`], the subset counters via
    /// `+=` — and no RNG is consumed during updates, so the final state
    /// (including `processed` and `updates_processed`) is identical to the
    /// per-update loop's: the batch ≡ loop law holds by linearity.
    fn update_batch(&mut self, updates: &[SignedUpdate]) {
        let mut order: Vec<Item> = Vec::new();
        let mut totals: HashMap<Item, (i128, u64)> =
            HashMap::with_capacity(updates.len().min(1024));
        for u in updates {
            let entry = totals.entry(u.item).or_insert_with(|| {
                order.push(u.item);
                (0, 0)
            });
            entry.0 += i128::from(u.delta);
            entry.1 += 1;
        }
        // A per-item net delta outside i64 (≥ 2^63 aggregate magnitude)
        // cannot be coalesced losslessly; replay such batches verbatim.
        if totals
            .values()
            .any(|&(total, _)| i64::try_from(total).is_err())
        {
            for &u in updates {
                self.update(u);
            }
            return;
        }
        self.processed += updates.len() as u64;
        for item in order {
            let (total, count) = totals[&item];
            let total = total as i64;
            self.recovery.update_coalesced(item, total, count);
            if self.subset.contains(&item) {
                let entry = self.subset_counts.entry(item).or_insert(0);
                *entry = entry.wrapping_add(total);
                if *entry == 0 {
                    self.subset_counts.remove(&item);
                }
            }
        }
    }

    fn sample(&mut self) -> SampleOutcome {
        if self.processed == 0 || self.recovery.is_zero() {
            return SampleOutcome::Empty;
        }
        if let Some(recovered) = self.recovery.recover() {
            let support: Vec<Item> = recovered
                .iter()
                .filter(|&&(_, v)| v != 0)
                .map(|&(i, _)| i)
                .collect();
            if support.is_empty() {
                return SampleOutcome::Empty;
            }
            let idx = self.rng.gen_index(support.len());
            return SampleOutcome::Index(support[idx]);
        }
        // Dense case: the support exceeds the recovery budget; fall back to
        // the random pre-drawn subset.
        let mut live: Vec<Item> = self
            .subset_counts
            .iter()
            .filter(|&(_, &c)| c > 0)
            .map(|(&i, _)| i)
            .collect();
        if live.is_empty() {
            return SampleOutcome::Fail;
        }
        // HashMap iteration order is per-instance; sort so that samplers with
        // equal logical state draw identically (mirrors the recovered path).
        live.sort_unstable();
        let idx = self.rng.gen_index(live.len());
        SampleOutcome::Index(live[idx])
    }
}

impl SpaceUsage for StrictTurnstileF0Sampler {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.recovery.space_bytes()
            + hashset_bytes(&self.subset)
            + hashmap_bytes(&self.subset_counts)
    }
}

/// The Alice/Bob equality protocol built from a `(0, γ, δ)`-sampler oracle
/// (the reduction in the proof of Theorem 1.2).
///
/// The sampler oracle is modelled directly on the final frequency vector
/// `x − y` (any turnstile sampler is a function of that vector plus its own
/// randomness): it reports `⊥` when the vector is zero, and when the vector
/// is nonzero it still reports `⊥` with probability `γ` — the additive
/// slack Definition 1.1 tolerates. Bob declares "equal" iff he sees `⊥`, so
/// his advantage over guessing on unequal inputs is exactly the sampler's
/// additive error.
#[derive(Debug, Clone, Copy)]
pub struct EqualityReduction {
    /// The additive error of the sampler being exploited.
    pub gamma: f64,
    /// The probability the sampler declares `FAIL` (ignored by the
    /// protocol, which simply re-queries; kept for completeness).
    pub fail_probability: f64,
}

impl EqualityReduction {
    /// Creates the reduction harness for a sampler with additive error
    /// `gamma`.
    ///
    /// # Panics
    ///
    /// Panics unless `γ ∈ [0, 1)`.
    pub fn new(gamma: f64) -> Self {
        assert!((0.0..1.0).contains(&gamma), "gamma must be in [0,1)");
        Self {
            gamma,
            fail_probability: 0.0,
        }
    }

    /// Runs the protocol on one instance and returns Bob's declaration
    /// ("the inputs are equal").
    pub fn run<R: StreamRng>(&self, instance: &EqualityInstance, rng: &mut R) -> bool {
        let mut updates = instance.alice_stream();
        updates.extend(instance.bob_stream());
        let vector = FrequencyVector::from_signed_stream(&updates);

        if vector.is_zero() {
            true
        } else {
            // A γ-additive sampler may report ⊥ on a nonzero vector with
            // probability up to γ; a truly perfect sampler never does.
            rng.gen_bool(self.gamma)
        }
    }

    /// Estimates the protocol's refutation error (probability of declaring
    /// "equal" on *unequal* inputs) over `trials` random unequal instances
    /// of dimension `n`. For a truly perfect sampler this is 0; for a
    /// γ-additive sampler it approaches γ — the advantage the lower bound
    /// converts into space.
    pub fn refutation_error<R: StreamRng>(&self, n: usize, trials: usize, rng: &mut R) -> f64 {
        let mut wrong = 0usize;
        let mut counted = 0usize;
        while counted < trials {
            let instance = tps_streams::generators::equality_instance(rng, n, 2);
            if instance.equal() {
                continue;
            }
            counted += 1;
            if self.run(&instance, rng) {
                wrong += 1;
            }
        }
        wrong as f64 / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_random::default_rng;
    use tps_streams::generators::strict_turnstile_stream;
    use tps_streams::stats::SampleHistogram;

    fn signed_stream_from_counts(counts: &[(Item, u64)]) -> Vec<SignedUpdate> {
        // Interleave inserts with some insert/delete churn that cancels, so
        // the stream genuinely exercises the turnstile path.
        let mut updates = Vec::new();
        for &(item, c) in counts {
            for _ in 0..c {
                updates.push(SignedUpdate::insert(item));
            }
            updates.push(SignedUpdate::insert(item + 10_000));
            updates.push(SignedUpdate::delete(item + 10_000));
        }
        updates
    }

    #[test]
    fn multipass_l1_distribution_is_exact() {
        let counts = [(3u64, 8u64), (400, 4), (901, 2), (77, 1)];
        let stream = signed_stream_from_counts(&counts);
        let truth = FrequencyVector::from_signed_stream(&stream);
        let target = truth.lp_distribution(1.0);
        let sampler = MultiPassL1Sampler::new(1_000, 0.25);
        let mut rng = default_rng(7);
        let mut histogram = SampleHistogram::new();
        for _ in 0..8_000 {
            let (outcome, report) = sampler.sample(&stream, &mut rng);
            assert!(report.passes <= 6, "too many passes: {}", report.passes);
            histogram.record(outcome);
        }
        assert_eq!(histogram.fails(), 0);
        assert!(histogram.tv_distance(&target) < 0.03);
    }

    #[test]
    fn multipass_pass_space_tradeoff() {
        let stream = vec![SignedUpdate::insert(123); 10];
        let mut rng = default_rng(8);
        let coarse = MultiPassL1Sampler::new(65_536, 0.5);
        let fine = MultiPassL1Sampler::new(65_536, 0.125);
        let (_, coarse_report) = coarse.sample(&stream, &mut rng);
        let (_, fine_report) = fine.sample(&stream, &mut rng);
        // Fewer chunks per pass ⇒ more passes but fewer counters.
        assert!(fine_report.passes > coarse_report.passes);
        assert!(fine_report.peak_counters < coarse_report.peak_counters);
    }

    #[test]
    fn multipass_l2_distribution_is_exact() {
        let counts = [(5u64, 6u64), (6, 3), (7, 1)];
        let stream = signed_stream_from_counts(&counts);
        let truth = FrequencyVector::from_signed_stream(&stream);
        let target = truth.lp_distribution(2.0);
        let sampler = MultiPassLpSampler::new(2.0, 64, 0.5, 0.1);
        let mut rng = default_rng(9);
        let mut histogram = SampleHistogram::new();
        for _ in 0..6_000 {
            let (outcome, _) = sampler.sample(&stream, &mut rng);
            histogram.record(outcome);
        }
        assert!(
            histogram.fail_rate() < 0.1,
            "fail rate {}",
            histogram.fail_rate()
        );
        assert!(histogram.tv_distance(&target) < 0.04);
    }

    #[test]
    fn multipass_zero_vector_reports_empty() {
        let stream = vec![SignedUpdate::insert(5), SignedUpdate::delete(5)];
        let sampler = MultiPassL1Sampler::new(100, 0.5);
        let mut rng = default_rng(10);
        let (outcome, _) = sampler.sample(&stream, &mut rng);
        assert_eq!(outcome, SampleOutcome::Empty);
    }

    #[test]
    fn strict_turnstile_f0_sparse_case_is_uniform() {
        // Final support of size 3 out of a universe of 400 (≤ √n budget
        // after cancellations).
        let mut updates = Vec::new();
        for item in 0..60u64 {
            updates.push(SignedUpdate::insert(item));
        }
        for item in 0..60u64 {
            if ![7, 21, 42].contains(&item) {
                updates.push(SignedUpdate::delete(item));
            }
        }
        let mut histogram = SampleHistogram::new();
        for seed in 0..3_000u64 {
            let mut s = StrictTurnstileF0Sampler::new(400, seed);
            for &u in &updates {
                s.update(u);
            }
            histogram.record(s.sample());
        }
        assert_eq!(histogram.fails(), 0);
        let target: HashMap<Item, f64> = [(7u64, 1.0 / 3.0), (21, 1.0 / 3.0), (42, 1.0 / 3.0)]
            .into_iter()
            .collect();
        assert!(histogram.tv_distance(&target) < 0.04);
    }

    #[test]
    fn strict_turnstile_f0_dense_case_succeeds() {
        let mut rng = default_rng(11);
        let updates = strict_turnstile_stream(&mut rng, 500, 3_000, 0.2);
        let truth = FrequencyVector::from_signed_stream(&updates);
        assert!(truth.f0() > 25, "test stream should have a large support");
        let mut histogram = SampleHistogram::new();
        for seed in 0..300u64 {
            let mut s = StrictTurnstileF0Sampler::new(500, 40_000 + seed);
            for &u in &updates {
                s.update(u);
            }
            let outcome = s.sample();
            if let SampleOutcome::Index(i) = outcome {
                assert!(truth.get(i) > 0, "sampled item {i} is not in the support");
            }
            histogram.record(outcome);
        }
        assert!(
            histogram.fail_rate() < 0.2,
            "fail rate {}",
            histogram.fail_rate()
        );
    }

    #[test]
    fn equality_reduction_advantage_tracks_gamma() {
        let mut rng = default_rng(12);
        let perfect = EqualityReduction::new(0.0);
        let leaky = EqualityReduction::new(0.1);
        assert_eq!(perfect.refutation_error(64, 2_000, &mut rng), 0.0);
        let observed = leaky.refutation_error(64, 4_000, &mut rng);
        assert!(
            (observed - 0.1).abs() < 0.02,
            "observed advantage {observed}"
        );
    }

    #[test]
    fn lower_bound_bits_behaviour() {
        // Tiny gamma: bound is governed by n.
        assert!(lower_bound_bits(1_000, 1e-30) > lower_bound_bits(100, 1e-30));
        // Moderate gamma: bound grows as gamma shrinks.
        assert!(lower_bound_bits(1 << 20, 1e-9) > lower_bound_bits(1 << 20, 1e-3));
        // Truly perfect corresponds to gamma -> 0: for moderate n the bound
        // saturates at the linear-in-n regime.
        let n = 256;
        let nearly_zero = lower_bound_bits(n, f64::MIN_POSITIVE);
        assert!((nearly_zero - ((n as f64 / 2.0) - 7.0) / 128.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "gamma in (0, 1/4)")]
    fn lower_bound_rejects_large_gamma() {
        let _ = lower_bound_bits(100, 0.3);
    }
}
