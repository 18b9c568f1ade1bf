//! Property-based tests (proptest) for the core data structures and the
//! invariants the samplers' correctness rests on.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tps_core::f0::TrulyPerfectF0Sampler;
use tps_core::framework::{MisraGriesNormalizer, RejectionNormalizer};
use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::ShardedSamplerBuilder;
use tps_core::sliding::{SlidingWindowGSampler, SlidingWindowLpSampler};
use tps_core::turnstile::{MultiPassL1Sampler, StrictTurnstileF0Sampler};
use tps_random::default_rng;
use tps_sketches::{MisraGries, SparseRecovery};
use tps_streams::frequency::FrequencyVector;
use tps_streams::stats::{fit_power_law, tv_distance, SampleHistogram};
use tps_streams::update::WindowSpec;
use tps_streams::{
    CappedCount, ConcaveLog, Fair, Huber, Item, Lp, MeasureFn, MergeableSampler, MergeableSummary,
    SampleOutcome, SignedUpdate, SlidingWindowSampler, StreamSampler, Tukey, TurnstileSampler,
    L1L2,
};

/// Asserts the batch ≡ loop law for one `StreamSampler`: feeding a stream
/// through `update_batch` (whole-slice *and* split at an arbitrary point)
/// must leave the sampler in a state indistinguishable from the per-item
/// loop's — checked by drawing several samples from each copy, which also
/// compares the RNG positions.
fn assert_stream_batch_law<S, F>(
    build: F,
    stream: &[Item],
    split: usize,
) -> Result<(), TestCaseError>
where
    S: StreamSampler,
    F: Fn() -> S,
{
    let mut looped = build();
    for &x in stream {
        looped.update(x);
    }
    let mut whole = build();
    whole.update_batch(stream);
    let split = split.min(stream.len());
    let mut halves = build();
    halves.update_batch(&stream[..split]);
    halves.update_batch(&stream[split..]);
    for draw in 0..6 {
        let expected = looped.sample();
        prop_assert_eq!(
            expected,
            whole.sample(),
            "whole-slice batch diverged from loop at draw {}",
            draw
        );
        prop_assert_eq!(
            expected,
            halves.sample(),
            "split batch diverged from loop at draw {}",
            draw
        );
    }
    Ok(())
}

/// Same law for a `SlidingWindowSampler`.
fn assert_window_batch_law<S, F>(
    build: F,
    stream: &[Item],
    split: usize,
) -> Result<(), TestCaseError>
where
    S: SlidingWindowSampler,
    F: Fn() -> S,
{
    let mut looped = build();
    for &x in stream {
        looped.update(x);
    }
    let mut whole = build();
    whole.update_batch(stream);
    let split = split.min(stream.len());
    let mut halves = build();
    halves.update_batch(&stream[..split]);
    halves.update_batch(&stream[split..]);
    for draw in 0..6 {
        let expected = looped.sample();
        prop_assert_eq!(
            expected,
            whole.sample(),
            "whole-slice batch diverged from loop at draw {}",
            draw
        );
        prop_assert_eq!(
            expected,
            halves.sample(),
            "split batch diverged from loop at draw {}",
            draw
        );
    }
    Ok(())
}

/// Same law for a `TurnstileSampler` over signed updates.
fn assert_turnstile_batch_law<S, F>(
    build: F,
    updates: &[SignedUpdate],
    split: usize,
) -> Result<(), TestCaseError>
where
    S: TurnstileSampler,
    F: Fn() -> S,
{
    let mut looped = build();
    for &u in updates {
        looped.update(u);
    }
    let mut whole = build();
    whole.update_batch(updates);
    let split = split.min(updates.len());
    let mut halves = build();
    halves.update_batch(&updates[..split]);
    halves.update_batch(&updates[split..]);
    for draw in 0..6 {
        let expected = looped.sample();
        prop_assert_eq!(
            expected,
            whole.sample(),
            "whole-slice batch diverged from loop at draw {}",
            draw
        );
        prop_assert_eq!(
            expected,
            halves.sample(),
            "split batch diverged from loop at draw {}",
            draw
        );
    }
    Ok(())
}

/// Cases per property: 64 by default (the CI pull-request budget), raised
/// by the `PROPTEST_CASES` environment variable (the weekly scheduled job
/// runs 4096). Resolved explicitly so the override works with both the
/// offline shim and registry proptest.
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or(64)
}

/// Arbitrary small insertion-only streams.
fn small_stream() -> impl Strategy<Value = Vec<Item>> {
    proptest::collection::vec(0u64..50, 1..400)
}

/// Arbitrary strict-turnstile streams (inserts, then delete a prefix of the
/// inserted copies so every intermediate frequency is non-negative).
fn strict_stream() -> impl Strategy<Value = Vec<SignedUpdate>> {
    (proptest::collection::vec(0u64..40, 1..150), any::<u64>()).prop_map(|(inserts, seed)| {
        use tps_random::StreamRng;
        let mut rng = default_rng(seed);
        let mut updates: Vec<SignedUpdate> =
            inserts.iter().map(|&i| SignedUpdate::insert(i)).collect();
        // Delete a random subset of what was inserted, after the inserts.
        let mut deletions = Vec::new();
        for &i in &inserts {
            if rng.gen_bool(0.4) {
                deletions.push(SignedUpdate::delete(i));
            }
        }
        updates.extend(deletions);
        updates
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(configured_cases()))]

    /// The telescoping identity Σ_{c=1}^{x} (G(c) − G(c−1)) = G(x) that the
    /// framework's correctness proof relies on, for every measure.
    #[test]
    fn measures_telescope(x in 1u64..200) {
        fn check<G: MeasureFn>(g: &G, x: u64) -> Result<(), TestCaseError> {
            let sum: f64 = (1..=x).map(|c| g.delta(c)).sum();
            prop_assert!((sum - g.value(x)).abs() < 1e-6 * g.value(x).max(1.0));
            Ok(())
        }
        check(&Lp::new(0.5), x)?;
        check(&Lp::new(1.5), x)?;
        check(&Lp::new(2.0), x)?;
        check(&L1L2, x)?;
        check(&Fair::new(2.5), x)?;
        check(&Huber::new(3.0), x)?;
        check(&Tukey::new(9.0), x)?;
        check(&ConcaveLog, x)?;
        check(&CappedCount::new(7), x)?;
    }

    /// Every measure's increment bound really bounds every increment up to
    /// the declared maximum frequency.
    #[test]
    fn increment_bounds_hold(max_freq in 1u64..500) {
        fn check<G: MeasureFn>(g: &G, max_freq: u64) -> Result<(), TestCaseError> {
            let zeta = g.increment_bound(max_freq);
            for c in 1..=max_freq {
                prop_assert!(g.delta(c) <= zeta + 1e-9);
            }
            Ok(())
        }
        check(&Lp::new(0.7), max_freq)?;
        check(&Lp::new(2.0), max_freq)?;
        check(&L1L2, max_freq)?;
        check(&Fair::new(1.5), max_freq)?;
        check(&Huber::new(0.8), max_freq)?;
        check(&ConcaveLog, max_freq)?;
    }

    /// Misra–Gries: deterministic two-sided frequency bounds and a certain
    /// upper bound on the maximum frequency, for arbitrary streams and
    /// counter budgets.
    #[test]
    fn misra_gries_invariants(stream in small_stream(), capacity in 1usize..40) {
        let mut mg = MisraGries::new(capacity);
        for &x in &stream {
            mg.update(x);
        }
        let truth = FrequencyVector::from_stream(&stream);
        let err = mg.error_bound();
        for (item, freq) in truth.iter() {
            let est = mg.estimate(item);
            prop_assert!(est <= freq as u64);
            prop_assert!(est + err >= freq as u64);
        }
        prop_assert!(mg.max_frequency_upper_bound() >= truth.l_inf());
        prop_assert!(mg.max_frequency_upper_bound() <= truth.l_inf() + err);
    }

    /// The Misra–Gries normaliser used by the L_p sampler is always a valid
    /// (certain) bound on the largest achievable increment.
    #[test]
    fn misra_gries_normalizer_is_certain(stream in small_stream(), p in 1.0f64..2.0) {
        let mut norm = MisraGriesNormalizer::new(p, 8);
        for &x in &stream {
            norm.observe(x);
        }
        let truth = FrequencyVector::from_stream(&stream);
        let max_f = truth.l_inf().max(1);
        let zeta = norm.zeta(stream.len() as u64);
        let largest_increment = (max_f as f64).powf(p) - ((max_f - 1) as f64).powf(p);
        prop_assert!(zeta + 1e-9 >= largest_increment);
    }

    /// Sparse recovery is exact for any vector within its sparsity budget,
    /// including after insert/delete churn.
    #[test]
    fn sparse_recovery_roundtrip(updates in strict_stream()) {
        let truth = FrequencyVector::from_signed_stream(&updates);
        let sparsity = (truth.f0() as usize).max(1);
        let mut sr = SparseRecovery::new(sparsity, 40);
        for &u in &updates {
            sr.update(u);
        }
        let recovered = sr.recover();
        prop_assert!(recovered.is_some());
        let recovered = recovered.unwrap();
        let as_vector = FrequencyVector::from_counts(&recovered);
        prop_assert_eq!(as_vector, truth);
    }

    /// The frequency-vector window restriction agrees with replaying only
    /// the suffix.
    #[test]
    fn window_restriction_is_suffix_replay(stream in small_stream(), window in 1u64..500) {
        let via_window = FrequencyVector::from_window(&stream, WindowSpec::new(window));
        let start = stream.len().saturating_sub(window as usize);
        let via_suffix = FrequencyVector::from_stream(&stream[start..]);
        prop_assert_eq!(via_window, via_suffix);
    }

    /// Exact target distributions are proper probability distributions for
    /// every measure and every non-empty stream.
    #[test]
    fn target_distributions_are_normalised(stream in small_stream()) {
        let truth = FrequencyVector::from_stream(&stream);
        for p in [0.5, 1.0, 1.5, 2.0] {
            let total: f64 = truth.lp_distribution(p).values().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
        let total_g: f64 = truth.g_distribution(&Huber::new(2.0)).values().sum();
        prop_assert!((total_g - 1.0).abs() < 1e-9);
        let total_f0: f64 = truth.f0_distribution().values().sum();
        prop_assert!((total_f0 - 1.0).abs() < 1e-9);
    }

    /// TV distance is a metric-like quantity: symmetric, zero on identical
    /// distributions, bounded by 1.
    #[test]
    fn tv_distance_properties(stream_a in small_stream(), stream_b in small_stream()) {
        let a = FrequencyVector::from_stream(&stream_a).lp_distribution(1.0);
        let b = FrequencyVector::from_stream(&stream_b).lp_distribution(1.0);
        let d_ab = tv_distance(&a, &b);
        let d_ba = tv_distance(&b, &a);
        prop_assert!((d_ab - d_ba).abs() < 1e-12);
        prop_assert!(tv_distance(&a, &a) < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d_ab));
    }

    /// The truly perfect L1 sampler (single reservoir instance) never fails
    /// and never reports an absent item, for arbitrary streams.
    #[test]
    fn l1_sampler_total_correctness(stream in small_stream(), seed in any::<u64>()) {
        let truth = FrequencyVector::from_stream(&stream);
        let mut sampler = TrulyPerfectLpSampler::new(1.0, 64, 0.1, seed);
        sampler.update_all(&stream);
        match sampler.sample() {
            SampleOutcome::Index(i) => prop_assert!(truth.get(i) > 0),
            SampleOutcome::Empty => prop_assert!(truth.is_zero()),
            SampleOutcome::Fail => prop_assert!(false, "L1 sampler must never fail"),
        }
    }

    /// The multi-pass strict-turnstile L1 sampler never reports an item with
    /// zero final frequency and reports Empty exactly on the zero vector.
    #[test]
    fn multipass_l1_soundness(updates in strict_stream(), seed in any::<u64>()) {
        let truth = FrequencyVector::from_signed_stream(&updates);
        let sampler = MultiPassL1Sampler::new(64, 0.5);
        let mut rng = default_rng(seed);
        let (outcome, report) = sampler.sample(&updates, &mut rng);
        prop_assert!(report.passes <= 4);
        match outcome {
            SampleOutcome::Index(i) => prop_assert!(truth.get(i) > 0),
            SampleOutcome::Empty => prop_assert!(truth.is_zero()),
            SampleOutcome::Fail => prop_assert!(false, "multi-pass L1 never fails"),
        }
    }

    /// The batch engine law for every insertion-only sampler with an
    /// amortised `update_batch` override: batched ingestion (whole-slice and
    /// split at a random point) is byte-identical to the per-item loop —
    /// same logical state, same RNG position, so repeated `sample()` draws
    /// agree exactly.
    #[test]
    fn stream_batch_equals_loop(stream in small_stream(), seed in any::<u64>(), split in 0usize..400) {
        // Truly perfect L2 (framework + Misra-Gries normaliser path).
        assert_stream_batch_law(
            || TrulyPerfectLpSampler::new(2.0, 64, 0.1, seed),
            &stream,
            split,
        )?;
        // Truly perfect L1 (single-reservoir degenerate case).
        assert_stream_batch_law(
            || TrulyPerfectLpSampler::new(1.0, 64, 0.1, seed ^ 1),
            &stream,
            split,
        )?;
        // Fractional L_{0.5} (framework + closed-form normaliser path).
        assert_stream_batch_law(
            || TrulyPerfectLpSampler::fractional(0.5, stream.len() as u64, 0.2, seed ^ 2),
            &stream,
            split,
        )?;
        // F0 sampler (aggregated multiplicity path, no RNG in updates).
        assert_stream_batch_law(|| TrulyPerfectF0Sampler::new(4_096, 0.1, seed ^ 3), &stream, split)?;
    }

    /// The batch engine law for the strict-turnstile F0 sampler's
    /// coalescing `update_batch` override: one net delta per item must
    /// leave exactly the per-update loop's state — same sample draws (and
    /// RNG position, exercised by repeated draws), same `processed` count.
    #[test]
    fn turnstile_batch_equals_loop(updates in strict_stream(), seed in any::<u64>(), split in 0usize..300) {
        assert_turnstile_batch_law(
            || StrictTurnstileF0Sampler::new(40, seed),
            &updates,
            split,
        )?;
        let mut looped = StrictTurnstileF0Sampler::new(40, seed);
        for &u in &updates {
            looped.update(u);
        }
        let mut batched = StrictTurnstileF0Sampler::new(40, seed);
        batched.update_batch(&updates);
        prop_assert_eq!(looped.processed(), batched.processed());
    }

    /// Coalescing law of the sparse-recovery syndromes: applying one
    /// net-delta update per item leaves the structure byte-identical to
    /// the per-update loop (same recovery output, same update count).
    #[test]
    fn sparse_recovery_coalesced_equals_loop(updates in strict_stream()) {
        let mut looped = SparseRecovery::new(16, 40);
        for &u in &updates {
            looped.update(u);
        }
        let mut coalesced = SparseRecovery::new(16, 40);
        let mut order: Vec<Item> = Vec::new();
        let mut totals: std::collections::HashMap<Item, (i64, u64)> = Default::default();
        for u in &updates {
            let entry = totals.entry(u.item).or_insert_with(|| {
                order.push(u.item);
                (0, 0)
            });
            entry.0 += u.delta;
            entry.1 += 1;
        }
        for item in order {
            let (total, count) = totals[&item];
            coalesced.update_coalesced(item, total, count);
        }
        prop_assert_eq!(looped.updates_processed(), coalesced.updates_processed());
        prop_assert_eq!(looped.is_zero(), coalesced.is_zero());
        prop_assert_eq!(looped.recover(), coalesced.recover());
    }

    /// The batch engine law for the sliding-window samplers (cohort
    /// epoch-splitting path), across window widths that put the batch
    /// boundary before, inside, and after the active window.
    #[test]
    fn window_batch_equals_loop(stream in small_stream(), seed in any::<u64>(), window in 1u64..300, split in 0usize..400) {
        assert_window_batch_law(
            || SlidingWindowGSampler::new(Huber::new(2.0), window, 0.2, seed),
            &stream,
            split,
        )?;
        assert_window_batch_law(
            || SlidingWindowLpSampler::with_estimator_size(2.0, window, 0.2, 2, 8, seed ^ 1),
            &stream,
            split,
        )?;
    }

    /// The batch engine law for the batched sketch: Misra-Gries leaves
    /// exactly the per-item loop's state (checked through its complete
    /// query surface).
    #[test]
    fn sketch_batch_equals_loop(stream in small_stream()) {
        for capacity in [1usize, 3, 8, 64] {
            let mut looped = MisraGries::new(capacity);
            let mut batched = MisraGries::new(capacity);
            for &x in &stream {
                looped.update(x);
            }
            batched.update_batch(&stream);
            prop_assert_eq!(looped.processed(), batched.processed());
            prop_assert_eq!(looped.error_bound(), batched.error_bound());
            prop_assert_eq!(
                looped.max_frequency_upper_bound(),
                batched.max_frequency_upper_bound()
            );
            prop_assert_eq!(looped.heavy_hitters(), batched.heavy_hitters());
        }
    }

    /// Misra–Gries merge law. Byte-level part: on item-disjoint shards with
    /// enough counters for the union (no decrements anywhere), the merged
    /// summary equals sequential ingestion of the concatenated stream
    /// exactly. Guarantee-level part: for *any* capacity the merged summary
    /// keeps the deterministic two-sided bounds over the concatenated
    /// stream (the Agarwal et al. mergeability result).
    #[test]
    fn misra_gries_merge_law(
        stream_a in small_stream(),
        stream_b in small_stream(),
        capacity in 1usize..40,
    ) {
        // Disjoint relabeling: evens from A, odds from B.
        let disjoint_a: Vec<Item> = stream_a.iter().map(|&x| 2 * x).collect();
        let disjoint_b: Vec<Item> = stream_b.iter().map(|&x| 2 * x + 1).collect();
        let concat: Vec<Item> = disjoint_a.iter().chain(&disjoint_b).copied().collect();
        let union_distinct = FrequencyVector::from_stream(&concat).f0() as usize;
        {
            // Byte-equality regime: capacity covers the union.
            let roomy = union_distinct.max(1);
            let mut half_a = MisraGries::new(roomy);
            let mut half_b = MisraGries::new(roomy);
            let mut sequential = MisraGries::new(roomy);
            half_a.update_batch(&disjoint_a);
            half_b.update_batch(&disjoint_b);
            sequential.update_batch(&concat);
            let merged = MergeableSummary::merge(half_a, half_b);
            prop_assert_eq!(merged.processed(), sequential.processed());
            prop_assert_eq!(merged.heavy_hitters(), sequential.heavy_hitters());
            prop_assert_eq!(merged.error_bound(), sequential.error_bound());
        }
        {
            // Guarantee regime: arbitrary capacity, overlapping items.
            let mut half_a = MisraGries::new(capacity);
            let mut half_b = MisraGries::new(capacity);
            half_a.update_batch(&stream_a);
            half_b.update_batch(&stream_b);
            let merged = MergeableSummary::merge(half_a, half_b);
            let both: Vec<Item> = stream_a.iter().chain(&stream_b).copied().collect();
            let truth = FrequencyVector::from_stream(&both);
            prop_assert_eq!(merged.processed(), both.len() as u64);
            let err = merged.error_bound();
            for (item, freq) in truth.iter() {
                let est = merged.estimate(item);
                prop_assert!(est <= freq as u64, "merged MG must underestimate");
                prop_assert!(est + err >= freq as u64, "merged MG bound violated");
            }
            prop_assert!(merged.max_frequency_upper_bound() >= truth.l_inf());
        }
    }

    /// F0 merge law: same-seed shards over item-disjoint streams merge into
    /// exactly the sampler state sequential ingestion of the concatenated
    /// stream produces — same support bookkeeping, same exact frequencies,
    /// and the same RNG position, so every subsequent draw agrees.
    #[test]
    fn f0_merge_equals_concatenated_stream(
        stream_a in small_stream(),
        stream_b in small_stream(),
        seed in any::<u64>(),
    ) {
        let disjoint_a: Vec<Item> = stream_a.iter().map(|&x| 2 * x).collect();
        let disjoint_b: Vec<Item> = stream_b.iter().map(|&x| 2 * x + 1).collect();
        let mut half_a = TrulyPerfectF0Sampler::new(4_096, 0.1, seed);
        let mut half_b = TrulyPerfectF0Sampler::new(4_096, 0.1, seed);
        let mut sequential = TrulyPerfectF0Sampler::new(4_096, 0.1, seed);
        half_a.update_batch(&disjoint_a);
        half_b.update_batch(&disjoint_b);
        let concat: Vec<Item> = disjoint_a.iter().chain(&disjoint_b).copied().collect();
        sequential.update_batch(&concat);
        let mut coins = default_rng(seed ^ 0xC01);
        let mut merged = half_a.merge(half_b, &mut coins);
        prop_assert_eq!(merged.processed(), sequential.processed());
        prop_assert_eq!(merged.overflowed(), sequential.overflowed());
        for draw in 0..8 {
            prop_assert_eq!(
                merged.sample_with_frequency(),
                sequential.sample_with_frequency(),
                "draw {} diverged",
                draw
            );
        }
    }

    /// Turnstile merge law, stronger than the F0 one: same-seed
    /// `StrictTurnstileF0Sampler` shards merge byte-exactly under *any*
    /// partitioning of the stream — not just item-disjoint splits —
    /// because everything the sampler keeps (field syndromes, membership
    /// counters, processed counts) is linear in the updates and no RNG is
    /// consumed during ingestion. Checked on snapshot bytes, which also
    /// pins the RNG position.
    #[test]
    fn turnstile_merge_equals_concatenated_stream(
        updates in strict_stream(),
        seed in any::<u64>(),
        split in 0usize..400,
    ) {
        use tps_streams::Snapshot;
        // Interleaved partition: shard A takes even indices, B odd — the
        // same item's updates land on both shards.
        let part_a: Vec<SignedUpdate> =
            updates.iter().step_by(2).copied().collect();
        let part_b: Vec<SignedUpdate> =
            updates.iter().skip(1).step_by(2).copied().collect();
        // And an arbitrary contiguous split.
        let split = split.min(updates.len());
        for (a, b) in [
            (part_a.as_slice(), part_b.as_slice()),
            (&updates[..split], &updates[split..]),
        ] {
            let mut half_a = StrictTurnstileF0Sampler::new(40, seed);
            let mut half_b = StrictTurnstileF0Sampler::new(40, seed);
            let mut sequential = StrictTurnstileF0Sampler::new(40, seed);
            half_a.update_batch(a);
            half_b.update_batch(b);
            sequential.update_batch(a);
            sequential.update_batch(b);
            prop_assert!(half_a.merge_compatible(&half_b));
            let mut coins = default_rng(seed ^ 0xC01);
            let mut merged = half_a.merge(half_b, &mut coins);
            prop_assert_eq!(
                merged.snapshot(),
                sequential.snapshot(),
                "merged state is not byte-identical to sequential ingestion"
            );
            for draw in 0..6 {
                prop_assert_eq!(merged.sample(), sequential.sample(), "draw {} diverged", draw);
            }
        }
    }

    /// The sharded turnstile front-end obeys batch ≡ loop for arbitrary
    /// chunkings, and its merged answer equals a single unsharded instance
    /// over the interleaved stream (byte-exact, by the linear merge law
    /// above).
    #[test]
    fn sharded_turnstile_batch_equals_loop_and_single_instance(
        updates in strict_stream(),
        seed in any::<u64>(),
        chunk in 1usize..400,
    ) {
        use tps_streams::Snapshot;
        let build = || {
            ShardedSamplerBuilder::new(3)
                .seed(seed)
                // Shared seed: the turnstile merge law requires every
                // shard to pre-draw identical structure.
                .build_turnstile(|_idx| StrictTurnstileF0Sampler::new(40, seed))
        };
        let mut looped = build();
        for &u in &updates {
            looped.update(u);
        }
        let mut batched = build();
        for piece in updates.chunks(chunk.max(1)) {
            batched.update_batch(piece);
        }
        let mut single = StrictTurnstileF0Sampler::new(40, seed);
        single.update_batch(&updates);
        prop_assert_eq!(
            looped.merged().snapshot(),
            single.snapshot(),
            "merged shards drifted from the single instance"
        );
        for draw in 0..4 {
            let want = looped.sample();
            prop_assert_eq!(want, batched.sample(), "diverged at draw {}", draw);
        }
    }

    /// The sharded front-end obeys batch ≡ loop for arbitrary chunkings:
    /// same shard states, same query RNG position, so repeated samples
    /// agree draw for draw.
    #[test]
    fn sharded_batch_equals_loop(
        stream in small_stream(),
        seed in any::<u64>(),
        chunk in 1usize..400,
    ) {
        let build = || {
            ShardedSamplerBuilder::new(3).seed(seed).build(|idx| {
                TrulyPerfectLpSampler::new(2.0, 128, 0.1, seed ^ ((idx as u64) << 32))
            })
        };
        let mut looped = build();
        for &x in &stream {
            looped.update(x);
        }
        let mut batched = build();
        for piece in stream.chunks(chunk) {
            batched.update_batch(piece);
        }
        for draw in 0..4 {
            prop_assert_eq!(looped.sample(), batched.sample(), "diverged at draw {}", draw);
        }
    }

    /// Power-law fitting recovers planted exponents (used to validate the
    /// scaling experiments' methodology).
    #[test]
    fn power_law_fit_recovers_exponent(exponent in 0.1f64..2.0, scale in 0.5f64..10.0) {
        let points: Vec<(f64, f64)> =
            (1..=10).map(|i| {
                let x = 2f64.powi(i);
                (x, scale * x.powf(exponent))
            }).collect();
        let fitted = fit_power_law(&points);
        prop_assert!((fitted - exponent).abs() < 1e-6);
    }
}

/// The headline merge law: `k`-shard hash-partitioned ingest + query-time
/// merging is distributionally equivalent to sequential ingest — the
/// sharded L2 sampler's output histogram must hit the exact `f_i² / F_2`
/// target, with expired-free support (every occurrence of an item lives on
/// one shard, so merged suffix counts are exact).
#[test]
fn sharded_l2_hash_matches_sequential_distribution() {
    let stream: Vec<Item> = [(1u64, 10u64), (2, 5), (3, 2), (4, 1)]
        .iter()
        .flat_map(|&(i, c)| std::iter::repeat_n(i, c as usize))
        .collect();
    let target = FrequencyVector::from_stream(&stream).lp_distribution(2.0);
    let mut histogram = SampleHistogram::new();
    for seed in 0..5_000u64 {
        let mut sharded = ShardedSamplerBuilder::new(4)
            .seed(90_000 + seed)
            .build(|idx| {
                TrulyPerfectLpSampler::new(2.0, 64, 0.05, 90_000 + seed + ((idx as u64) << 32))
            });
        sharded.update_all(&stream);
        histogram.record(sharded.sample());
    }
    assert!(
        histogram.fail_rate() < 0.05,
        "fail rate {}",
        histogram.fail_rate()
    );
    let tv = histogram.tv_distance(&target);
    assert!(tv < 0.04, "sharded L2 TV {tv} off the exact target");
}

/// Sharded F0: hash-partitioned support splits merge back into an exactly
/// uniform-over-support sampler (shards share one seed, as the F0 merge
/// contract requires).
#[test]
fn sharded_f0_matches_uniform_support_distribution() {
    let stream: Vec<Item> = [(3u64, 30u64), (11, 9), (17, 3), (29, 1)]
        .iter()
        .flat_map(|&(i, c)| std::iter::repeat_n(i, c as usize))
        .collect();
    let target = FrequencyVector::from_stream(&stream).f0_distribution();
    let mut histogram = SampleHistogram::new();
    for seed in 0..4_000u64 {
        let mut sharded = ShardedSamplerBuilder::new(4)
            .seed(50_000 + seed)
            .build(|_| TrulyPerfectF0Sampler::new(10_000, 0.1, 50_000 + seed));
        sharded.update_all(&stream);
        histogram.record(sharded.sample());
    }
    assert_eq!(histogram.fails(), 0);
    let tv = histogram.tv_distance(&target);
    assert!(tv < 0.04, "sharded F0 TV {tv} off uniform-over-support");
}

/// Sliding-window merge law: two lockstep item-disjoint shards merge into a
/// sampler whose output hits the exact distribution of the **union** of the
/// two active windows (`L_1` through the bounded-increment G-framework, so
/// suffix counts are irrelevant and failures impossible at `ζ = 1`).
#[test]
fn merged_sliding_g_samplers_match_union_window_distribution() {
    let window = 60u64;
    let len = 150usize;
    // Shard A: items 1..=3 cyclically; shard B: items 11..=12, skewed.
    let stream_a: Vec<Item> = (0..len as u64).map(|t| t % 3 + 1).collect();
    let stream_b: Vec<Item> = (0..len as u64)
        .map(|t| if t % 4 == 0 { 12 } else { 11 })
        .collect();
    let union_window: Vec<Item> = stream_a[len - window as usize..]
        .iter()
        .chain(&stream_b[len - window as usize..])
        .copied()
        .collect();
    let target = FrequencyVector::from_stream(&union_window).lp_distribution(1.0);
    let g = Lp::new(1.0);
    let mut histogram = SampleHistogram::new();
    for seed in 0..3_000u64 {
        let mut shard_a = SlidingWindowGSampler::new(g, window, 0.1, 60_000 + seed);
        let mut shard_b = SlidingWindowGSampler::new(g, window, 0.1, 61_000_000 + seed);
        SlidingWindowSampler::update_batch(&mut shard_a, &stream_a);
        SlidingWindowSampler::update_batch(&mut shard_b, &stream_b);
        let mut merged = shard_a.merge(shard_b);
        histogram.record(SlidingWindowSampler::sample(&mut merged));
    }
    assert!(
        histogram.fail_rate() < 0.02,
        "fail rate {}",
        histogram.fail_rate()
    );
    let tv = histogram.tv_distance(&target);
    assert!(
        tv < 0.04,
        "merged sliding TV {tv} off the union-window target"
    );
}

/// Sliding-window edge case: `W = 1`. Every update opens a new cohort, the
/// active window is exactly the last item, and batch ≡ loop must hold
/// across chunkings that straddle every epoch boundary.
#[test]
fn sliding_window_of_one_batch_equals_loop_and_samples_last_item() {
    let stream: Vec<Item> = (0..40u64).map(|t| t % 7 + 100).collect();
    for chunk in [1usize, 2, 3, 40] {
        for seed in 0..50u64 {
            let mut looped = SlidingWindowGSampler::new(Huber::new(2.0), 1, 0.1, 400 + seed);
            for &x in &stream {
                SlidingWindowSampler::update(&mut looped, x);
            }
            let mut batched = SlidingWindowGSampler::new(Huber::new(2.0), 1, 0.1, 400 + seed);
            for piece in stream.chunks(chunk) {
                SlidingWindowSampler::update_batch(&mut batched, piece);
            }
            for _ in 0..4 {
                let expected = SlidingWindowSampler::sample(&mut looped);
                assert_eq!(expected, SlidingWindowSampler::sample(&mut batched));
                if let SampleOutcome::Index(i) = expected {
                    assert_eq!(i, *stream.last().unwrap(), "W=1 must sample the last item");
                }
            }
        }
    }
}

/// Sliding-window edge case: one `update_batch` call spanning more than
/// three cohort epochs must split at every boundary and agree with the
/// per-item loop (and with a two-piece chunking) on both sampler families.
#[test]
fn batch_spanning_three_cohort_epochs_equals_loop() {
    let window = 5u64;
    let stream: Vec<Item> = (0..23u64).map(|t| t % 4 + 50).collect();
    for seed in 0..100u64 {
        assert_window_batch_law(
            || SlidingWindowGSampler::new(Huber::new(2.0), window, 0.2, 500 + seed),
            &stream,
            7,
        )
        .unwrap();
        assert_window_batch_law(
            || SlidingWindowLpSampler::with_estimator_size(2.0, window, 0.2, 2, 8, 600 + seed),
            &stream,
            7,
        )
        .unwrap();
    }
}

/// Sliding-window edge case: querying before the first window fills must
/// answer from the partial window (never `Fail`ing into expired territory,
/// never inventing items), and batch ≡ loop holds on the short prefix.
#[test]
fn query_before_first_window_fills() {
    let window = 100u64;
    let prefix: Vec<Item> = vec![5, 6, 5, 7, 5, 5, 6, 8, 5, 6];
    let mut seen_index = false;
    for seed in 0..200u64 {
        assert_window_batch_law(
            || SlidingWindowGSampler::new(Huber::new(2.0), window, 0.2, 700 + seed),
            &prefix,
            3,
        )
        .unwrap();
        let mut sampler = SlidingWindowGSampler::new(Huber::new(2.0), window, 0.2, 700 + seed);
        SlidingWindowSampler::update_batch(&mut sampler, &prefix);
        match SlidingWindowSampler::sample(&mut sampler) {
            SampleOutcome::Index(i) => {
                seen_index = true;
                assert!(prefix.contains(&i), "sampled {i} not in the partial window");
            }
            SampleOutcome::Empty => panic!("non-empty prefix reported Empty"),
            SampleOutcome::Fail => {}
        }
    }
    assert!(seen_index, "partial-window queries must succeed sometimes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(configured_cases()))]

    /// The snapshot round-trip law as a property: for an arbitrary stream,
    /// cut point and seed, encode → decode → continue ingesting leaves a
    /// sampler byte-identical (snapshots are canonical, so byte equality is
    /// state equality, RNG position included) to the uninterrupted run.
    /// `tests/snapshot_roundtrip.rs` covers every type at fixed seeds; this
    /// property hammers the representative stack — engine, Misra–Gries
    /// `L_p` regime, sliding cohorts — with arbitrary inputs (4096 cases in
    /// the weekly run).
    #[test]
    fn snapshot_roundtrip_law(stream in small_stream(), cut in 0usize..400, seed in 0u64..1_000) {
        use tps_streams::codec::{Restore, Snapshot};

        fn check<T: Snapshot + Restore>(
            live: &mut T,
            mut drive: impl FnMut(&mut T),
        ) -> Result<(), TestCaseError> {
            let bytes = live.snapshot();
            let mut restored = match T::restore(&bytes) {
                Ok(r) => r,
                Err(e) => return Err(TestCaseError::fail(format!("restore failed: {e}"))),
            };
            prop_assert_eq!(&restored.snapshot(), &bytes, "snapshot not canonical");
            drive(live);
            drive(&mut restored);
            prop_assert_eq!(
                live.snapshot(),
                restored.snapshot(),
                "continued run diverged after restore"
            );
            Ok(())
        }

        let cut = cut.min(stream.len());
        let mut lp = TrulyPerfectLpSampler::new(2.0, 64, 0.2, seed);
        lp.update_batch(&stream[..cut]);
        check(&mut lp, |s| {
            s.update_batch(&stream[cut..]);
            let _ = s.sample();
        })?;

        let mut sliding = SlidingWindowGSampler::new(Lp::new(1.0), 37, 0.2, seed);
        SlidingWindowSampler::update_batch(&mut sliding, &stream[..cut]);
        check(&mut sliding, |s| {
            SlidingWindowSampler::update_batch(s, &stream[cut..]);
            let _ = SlidingWindowSampler::sample(s);
        })?;

        let mut engine = tps_core::engine::SkipAheadEngine::with_seed(4, seed);
        engine.update_batch(&stream[..cut]);
        check(&mut engine, |e| {
            e.update_batch(&stream[cut..]);
        })?;
    }
}
