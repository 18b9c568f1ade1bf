//! Experiment implementations, one per theorem-level claim of the paper.
//!
//! Each function is deterministic given its inputs (seeds are fixed
//! internally), returns plain-data rows, and is used both by the `report`
//! binary and by the smoke tests. Experiment identifiers (E1–E11, F1) match
//! `DESIGN.md` §3 and `EXPERIMENTS.md`.

use std::time::Instant;

use tps_core::composition::run_composition;
use tps_core::engine::SkipAheadEngine;
use tps_core::f0::TrulyPerfectF0Sampler;
use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::matrix::{MatrixRowSampler, RowL2};
use tps_core::mestimators::{FairSampler, HuberSampler, L1L2Sampler, TukeySampler};
use tps_core::perfect_baselines::{BiasedReferenceSampler, ExponentialScalingSampler};
use tps_core::random_order::{RandomOrderL2Sampler, RandomOrderLpSampler};
use tps_core::sliding::{SlidingWindowGSampler, SlidingWindowLpSampler};
use tps_core::turnstile::{
    lower_bound_bits, EqualityReduction, MultiPassL1Sampler, StrictTurnstileF0Sampler,
};
use tps_random::default_rng;
use tps_random::StreamRng;
use tps_streams::frequency::{FrequencyVector, MatrixAccumulator};
use tps_streams::generators::{
    drifting_stream, matrix_stream, random_order_stream, split_into_portions, zipfian_stream,
};
use tps_streams::stats::{expected_sampling_tv, fit_power_law, SampleHistogram};
use tps_streams::update::{SignedUpdate, WindowSpec};
use tps_streams::{
    Fair, Huber, MatrixSampler, SlidingWindowSampler, SpaceUsage, StreamSampler, Tukey,
    TurnstileSampler, L1L2,
};
use tps_window::SmoothHistogram;

/// E1 / E2: measured space of an `L_p` sampler across problem sizes, with
/// the fitted power-law exponent.
#[derive(Debug, Clone)]
pub struct LpSpaceRow {
    /// The exponent `p`.
    pub p: f64,
    /// `(problem size, measured bytes)` pairs — the problem size is the
    /// universe `n` for E1 and the stream length `m` for E2.
    pub points: Vec<(u64, usize)>,
    /// Parallel instance counts at each problem size.
    pub instances: Vec<usize>,
    /// Least-squares exponent of `bytes ~ size^e`.
    pub fitted_exponent: f64,
    /// The exponent the paper predicts (`1 − 1/p` for E1, `1 − p` for E2).
    pub theory_exponent: f64,
}

/// E1: space of the truly perfect `L_p` sampler, `p ∈ [1, 2]`, as a function
/// of the universe size `n` (Theorem 1.4 / 3.4: `Õ(n^{1−1/p})`).
pub fn e1_lp_space(universes: &[u64], ps: &[f64], delta: f64) -> Vec<LpSpaceRow> {
    ps.iter()
        .map(|&p| {
            let mut points = Vec::new();
            let mut instances = Vec::new();
            for &n in universes {
                let mut rng = default_rng(100 + n);
                let stream = zipfian_stream(&mut rng, n, (4 * n as usize).max(4_000), 1.1);
                let mut sampler = TrulyPerfectLpSampler::new(p, n, delta, n);
                sampler.update_all(&stream);
                points.push((n, sampler.space_bytes()));
                instances.push(sampler.instance_count());
            }
            let fitted = fit_power_law(
                &points
                    .iter()
                    .map(|&(n, b)| (n as f64, b as f64))
                    .collect::<Vec<_>>(),
            );
            LpSpaceRow {
                p,
                points,
                instances,
                fitted_exponent: fitted,
                theory_exponent: 1.0 - 1.0 / p,
            }
        })
        .collect()
}

/// E2: space of the truly perfect `L_p` sampler, `p ∈ (0, 1)`, as a function
/// of the stream length `m` (Theorem 3.5: `O(m^{1−p} log n)`).
pub fn e2_fractional_space(lengths: &[u64], ps: &[f64], delta: f64) -> Vec<LpSpaceRow> {
    ps.iter()
        .map(|&p| {
            let mut points = Vec::new();
            let mut instances = Vec::new();
            for &m in lengths {
                let mut rng = default_rng(200 + m);
                let stream = zipfian_stream(&mut rng, 1_024, m as usize, 1.0);
                let mut sampler = TrulyPerfectLpSampler::fractional(p, m, delta, m);
                sampler.update_all(&stream);
                points.push((m, sampler.space_bytes()));
                instances.push(sampler.instance_count());
            }
            // Fit the instance count (the space term the theorem bounds);
            // byte-level space adds universe-independent constants.
            let fitted = fit_power_law(
                &points
                    .iter()
                    .zip(&instances)
                    .map(|(&(m, _), &k)| (m as f64, k as f64))
                    .collect::<Vec<_>>(),
            );
            LpSpaceRow {
                p,
                points,
                instances,
                fitted_exponent: fitted,
                theory_exponent: 1.0 - p,
            }
        })
        .collect()
}

/// E3: per-update wall-clock time of the truly perfect sampler vs the
/// duplication-based perfect baseline at increasing accuracy (duplication).
#[derive(Debug, Clone)]
pub struct UpdateTimeRow {
    /// Nanoseconds per update for the truly perfect `L_2` sampler driven one
    /// item at a time through [`StreamSampler::update`].
    pub truly_perfect_nanos_per_update: f64,
    /// Nanoseconds per update for the same sampler driven through the
    /// batched engine ([`StreamSampler::update_batch`]).
    pub truly_perfect_batch_nanos_per_update: f64,
    /// Per-item over batched time (>1 means the batch path is faster).
    pub batch_speedup: f64,
    /// Nanoseconds per signed update for the strict-turnstile `F_0`
    /// sampler driven one update at a time.
    pub turnstile_f0_nanos_per_update: f64,
    /// Nanoseconds per signed update for the same sampler driven through
    /// its coalescing `update_batch` override.
    pub turnstile_f0_batch_nanos_per_update: f64,
    /// Per-update over batched time for the turnstile `F_0` sampler.
    pub turnstile_batch_speedup: f64,
    /// The duplication factors measured for the baseline.
    pub baseline_duplications: Vec<usize>,
    /// Nanoseconds per update for the baseline at each duplication factor.
    pub baseline_nanos_per_update: Vec<f64>,
    /// Reservoir slot counts the shared [`SkipAheadEngine`] was measured at.
    pub engine_slot_counts: Vec<usize>,
    /// Stream length used for each engine slot count (scaled with the slot
    /// count so the amortised replacement term has room to amortise).
    pub engine_stream_lengths: Vec<u64>,
    /// Nanoseconds per update for the engine at each slot count.
    pub engine_nanos_per_update: Vec<f64>,
}

/// E3: update-time comparison (Theorem 1.4's `O(1)` update time vs the
/// `n^{Θ(c)}` update time of prior perfect samplers).
pub fn e3_update_time(
    stream_length: usize,
    universe: u64,
    duplications: &[usize],
    engine_slots: &[usize],
) -> UpdateTimeRow {
    let mut rng = default_rng(300);
    let stream = zipfian_stream(&mut rng, universe, stream_length, 1.1);

    // Each gated leg is measured best-of-3 on a fresh sampler: at the quick
    // scale one leg is a ~1ms window, and a single scheduler preemption on
    // a busy host would otherwise read as a 2-3x "regression".
    const E3_REPS: usize = 3;

    let truly_perfect = (0..E3_REPS)
        .map(|_| {
            let mut sampler = TrulyPerfectLpSampler::new(2.0, universe, 0.1, 1);
            let start = Instant::now();
            for &x in &stream {
                sampler.update(x);
            }
            let nanos = start.elapsed().as_nanos() as f64 / stream.len() as f64;
            // Keep the sampler alive so the measured loop is not optimised
            // away.
            let _ = sampler.sample();
            nanos
        })
        .fold(f64::INFINITY, f64::min);

    let truly_perfect_batch = (0..E3_REPS)
        .map(|_| {
            let mut batched = TrulyPerfectLpSampler::new(2.0, universe, 0.1, 1);
            let start = Instant::now();
            batched.update_batch(&stream);
            let nanos = start.elapsed().as_nanos() as f64 / stream.len() as f64;
            let _ = batched.sample();
            nanos
        })
        .fold(f64::INFINITY, f64::min);

    // Strict-turnstile F0 on the signed version of the workload: every
    // insert, then deletions of a seeded 30% subset (the strict-turnstile
    // shape where no frequency goes negative).
    let signed: Vec<SignedUpdate> = {
        let mut deletions: Vec<SignedUpdate> = Vec::new();
        let mut updates: Vec<SignedUpdate> =
            stream.iter().map(|&i| SignedUpdate::insert(i)).collect();
        let mut del_rng = default_rng(301);
        for &i in &stream {
            if del_rng.gen_bool(0.3) {
                deletions.push(SignedUpdate::delete(i));
            }
        }
        updates.extend(deletions);
        updates
    };
    let turnstile_loop = (0..E3_REPS)
        .map(|_| {
            let mut turnstile = StrictTurnstileF0Sampler::new(universe, 1);
            let start = Instant::now();
            for &u in &signed {
                turnstile.update(u);
            }
            let nanos = start.elapsed().as_nanos() as f64 / signed.len() as f64;
            let _ = turnstile.sample();
            nanos
        })
        .fold(f64::INFINITY, f64::min);

    let turnstile_batch = (0..E3_REPS)
        .map(|_| {
            let mut turnstile_batched = StrictTurnstileF0Sampler::new(universe, 1);
            let start = Instant::now();
            turnstile_batched.update_batch(&signed);
            let nanos = start.elapsed().as_nanos() as f64 / signed.len() as f64;
            let _ = turnstile_batched.sample();
            nanos
        })
        .fold(f64::INFINITY, f64::min);

    // Huge-reservoir scaling of the shared skip-ahead engine (ROADMAP:
    // "prove out huge-reservoir scaling with 1M-slot benchmarks"). The
    // priority-queue schedule only touches slots that are actually due, so
    // the per-element cost should stay near-flat across slot counts; each
    // slot count gets a stream long enough (20 updates per slot, at least
    // the E3 stream) for the `k·ln(n)` total replacement work to amortise.
    let mut engine_stream_lengths = Vec::new();
    let mut engine_nanos = Vec::new();
    for &slots in engine_slots {
        let n = slots.saturating_mul(20).max(stream_length);
        let mut engine_rng = default_rng(302);
        let engine_stream = zipfian_stream(&mut engine_rng, universe, n, 1.1);
        // The big legs are long enough to be preemption-insensitive on
        // their own; best-of-N only where a leg is a ~1ms window.
        let reps = if n > 2_000_000 { 1 } else { E3_REPS };
        let nanos = (0..reps)
            .map(|_| {
                let mut engine = SkipAheadEngine::with_seed(slots, 7);
                let start = Instant::now();
                engine.update_batch(&engine_stream);
                let per_update = start.elapsed().as_nanos() as f64 / engine_stream.len() as f64;
                assert_eq!(engine.seen(), engine_stream.len() as u64);
                per_update
            })
            .fold(f64::INFINITY, f64::min);
        engine_stream_lengths.push(n as u64);
        engine_nanos.push(nanos);
    }

    let mut baseline_nanos = Vec::new();
    for &dup in duplications {
        let mut baseline = ExponentialScalingSampler::new(2.0, dup, 256, 2);
        let start = Instant::now();
        baseline.update_all(&stream);
        baseline_nanos.push(start.elapsed().as_nanos() as f64 / stream.len() as f64);
        let _ = baseline.sample();
    }
    UpdateTimeRow {
        truly_perfect_nanos_per_update: truly_perfect,
        truly_perfect_batch_nanos_per_update: truly_perfect_batch,
        batch_speedup: truly_perfect / truly_perfect_batch.max(f64::MIN_POSITIVE),
        turnstile_f0_nanos_per_update: turnstile_loop,
        turnstile_f0_batch_nanos_per_update: turnstile_batch,
        turnstile_batch_speedup: turnstile_loop / turnstile_batch.max(f64::MIN_POSITIVE),
        baseline_duplications: duplications.to_vec(),
        baseline_nanos_per_update: baseline_nanos,
        engine_slot_counts: engine_slots.to_vec(),
        engine_stream_lengths,
        engine_nanos_per_update: engine_nanos,
    }
}

/// E4: distributional exactness and composition drift.
#[derive(Debug, Clone)]
pub struct DistributionRow {
    /// Single-portion TV distance of the truly perfect sampler.
    pub truly_perfect_tv: f64,
    /// Expected multinomial-noise TV at the same sample count.
    pub expected_noise: f64,
    /// Cumulative drift ratio (drift / noise floor) across portions for the
    /// truly perfect sampler.
    pub truly_perfect_drift_ratio: f64,
    /// Cumulative drift ratio for the γ-additive baseline.
    pub biased_drift_ratio: f64,
    /// The γ injected into the baseline.
    pub gamma: f64,
}

/// E4: exactness of the output distribution and drift under composition
/// (the §1 motivation: truly perfect ⇒ drift is pure sampling noise).
pub fn e4_distribution(
    stream_length: usize,
    universe: u64,
    portions: usize,
    samples_per_portion: usize,
    gamma: f64,
) -> DistributionRow {
    let mut rng = default_rng(400);
    let stream = zipfian_stream(&mut rng, universe, stream_length, 1.0);
    let split = split_into_portions(&stream, portions);

    // Single-portion exactness on the full stream.
    let truth = FrequencyVector::from_stream(&stream);
    let target = truth.lp_distribution(1.0);
    let mut histogram = SampleHistogram::new();
    for seed in 0..samples_per_portion as u64 {
        let mut sampler = TrulyPerfectLpSampler::new(1.0, universe, 0.1, seed);
        sampler.update_all(&stream);
        histogram.record(sampler.sample());
    }
    let truly_perfect_tv = histogram.tv_distance(&target);
    let expected_noise = expected_sampling_tv(&target, histogram.successes());

    let perfect = run_composition(
        &split,
        samples_per_portion,
        |seed| TrulyPerfectLpSampler::new(1.0, universe, 0.1, seed),
        |truth| truth.lp_distribution(1.0),
    );
    let biased = run_composition(
        &split,
        samples_per_portion,
        |seed| {
            BiasedReferenceSampler::new(
                TrulyPerfectLpSampler::new(1.0, universe, 0.1, seed),
                gamma,
                universe - 1,
                seed ^ 0xFACE,
            )
        },
        |truth| truth.lp_distribution(1.0),
    );
    DistributionRow {
        truly_perfect_tv,
        expected_noise,
        truly_perfect_drift_ratio: perfect.drift_ratio(),
        biased_drift_ratio: biased.drift_ratio(),
        gamma,
    }
}

/// E5 / E7 / E8 / E11: a generic "one sampler, one workload" result row.
#[derive(Debug, Clone)]
pub struct SamplerRow {
    /// Which sampler / measure the row describes.
    pub measure: String,
    /// TV distance between the empirical sample distribution and the exact
    /// target.
    pub tv_distance: f64,
    /// Expected multinomial-noise TV at the same sample count.
    pub expected_noise: f64,
    /// Observed failure rate.
    pub fail_rate: f64,
    /// Measured memory of one sampler instance in bytes.
    pub space_bytes: usize,
}

/// E5: the M-estimator samplers (L1–L2, Fair, Huber, Tukey) — `O(log n)`
/// space and exact output distribution (Corollary 3.6, Theorem 5.4).
pub fn e5_mestimators(stream_length: usize, universe: u64, draws: usize) -> Vec<SamplerRow> {
    let mut rng = default_rng(500);
    let stream = zipfian_stream(&mut rng, universe, stream_length, 1.2);
    let truth = FrequencyVector::from_stream(&stream);
    let m = stream.len() as u64;

    let mut rows = Vec::new();
    {
        let target = truth.g_distribution(&L1L2);
        let mut histogram = SampleHistogram::new();
        let mut space = 0;
        for seed in 0..draws as u64 {
            let mut s = L1L2Sampler::l1l2(m, 0.05, seed);
            s.update_all(&stream);
            space = s.space_bytes();
            histogram.record(s.sample());
        }
        rows.push(SamplerRow {
            measure: "L1-L2".into(),
            tv_distance: histogram.tv_distance(&target),
            expected_noise: expected_sampling_tv(&target, histogram.successes().max(1)),
            fail_rate: histogram.fail_rate(),
            space_bytes: space,
        });
    }
    {
        let g = Fair::new(2.0);
        let target = truth.g_distribution(&g);
        let mut histogram = SampleHistogram::new();
        let mut space = 0;
        for seed in 0..draws as u64 {
            let mut s = FairSampler::fair(2.0, m, 0.05, seed);
            s.update_all(&stream);
            space = s.space_bytes();
            histogram.record(s.sample());
        }
        rows.push(SamplerRow {
            measure: "Fair(2)".into(),
            tv_distance: histogram.tv_distance(&target),
            expected_noise: expected_sampling_tv(&target, histogram.successes().max(1)),
            fail_rate: histogram.fail_rate(),
            space_bytes: space,
        });
    }
    {
        let g = Huber::new(3.0);
        let target = truth.g_distribution(&g);
        let mut histogram = SampleHistogram::new();
        let mut space = 0;
        for seed in 0..draws as u64 {
            let mut s = HuberSampler::huber(3.0, m, 0.05, seed);
            s.update_all(&stream);
            space = s.space_bytes();
            histogram.record(s.sample());
        }
        rows.push(SamplerRow {
            measure: "Huber(3)".into(),
            tv_distance: histogram.tv_distance(&target),
            expected_noise: expected_sampling_tv(&target, histogram.successes().max(1)),
            fail_rate: histogram.fail_rate(),
            space_bytes: space,
        });
    }
    {
        let g = Tukey::new(3.0);
        let target = truth.g_distribution(&g);
        let mut histogram = SampleHistogram::new();
        let mut space = 0;
        for seed in 0..draws as u64 {
            let mut s = TukeySampler::new(3.0, universe, 0.05, seed);
            s.update_all(&stream);
            space = s.space_bytes();
            histogram.record(s.sample());
        }
        rows.push(SamplerRow {
            measure: "Tukey(3)".into(),
            tv_distance: histogram.tv_distance(&target),
            expected_noise: expected_sampling_tv(&target, histogram.successes().max(1)),
            fail_rate: histogram.fail_rate(),
            space_bytes: space,
        });
    }
    rows
}

/// E6: the `F_0` sampler — `O(√n)` space scaling and uniform-over-support
/// output (Theorem 5.2).
#[derive(Debug, Clone)]
pub struct F0Row {
    /// `(universe, measured bytes)` pairs.
    pub points: Vec<(u64, usize)>,
    /// Fitted exponent of `bytes ~ n^e` (theory: 1/2).
    pub fitted_space_exponent: f64,
    /// TV distance to the uniform-over-support target at the largest size.
    pub tv_distance: f64,
    /// Failure rate at the largest size.
    pub fail_rate: f64,
}

/// E6: see [`F0Row`].
pub fn e6_f0(universes: &[u64], draws: usize) -> F0Row {
    let mut points = Vec::new();
    let mut tv = 0.0;
    let mut fail_rate = 0.0;
    for (idx, &n) in universes.iter().enumerate() {
        let mut rng = default_rng(600 + n);
        // A moderate support so the random-subset side is exercised for the
        // smaller universes while the sample histogram stays well resolved.
        let support = (n / 8).clamp(4, 48);
        let stream: Vec<u64> = (0..(4 * support)).map(|_| rng.gen_range(support)).collect();
        let truth = FrequencyVector::from_stream(&stream);
        let target = truth.f0_distribution();
        let mut histogram = SampleHistogram::new();
        let mut space = 0usize;
        for seed in 0..draws as u64 {
            let mut s = TrulyPerfectF0Sampler::new(n, 0.05, seed);
            s.update_all(&stream);
            space = s.space_bytes();
            histogram.record(s.sample());
        }
        points.push((n, space));
        if idx == universes.len() - 1 {
            tv = histogram.tv_distance(&target);
            fail_rate = histogram.fail_rate();
        }
    }
    let fitted = fit_power_law(
        &points
            .iter()
            .map(|&(n, b)| (n as f64, b as f64))
            .collect::<Vec<_>>(),
    );
    F0Row {
        points,
        fitted_space_exponent: fitted,
        tv_distance: tv,
        fail_rate,
    }
}

/// E7: sliding-window samplers on a drifting stream.
pub fn e7_sliding(window: u64, stream_length: usize, draws: usize) -> Vec<SamplerRow> {
    let mut rng = default_rng(700);
    let universe = 4 * window;
    let stream = drifting_stream(
        &mut rng,
        universe,
        stream_length,
        stream_length / 6,
        64,
        128,
    );
    let truth = FrequencyVector::from_window(&stream, WindowSpec::new(window));
    let mut rows = Vec::new();
    {
        let g = Huber::new(4.0);
        let target = truth.g_distribution(&g);
        let mut histogram = SampleHistogram::new();
        let mut space = 0;
        for seed in 0..draws as u64 {
            let mut s = SlidingWindowGSampler::new(g, window, 0.1, seed);
            for &x in &stream {
                SlidingWindowSampler::update(&mut s, x);
            }
            space = s.space_bytes();
            histogram.record(SlidingWindowSampler::sample(&mut s));
        }
        rows.push(SamplerRow {
            measure: format!("sliding Huber(4), W={window}"),
            tv_distance: histogram.tv_distance(&target),
            expected_noise: expected_sampling_tv(&target, histogram.successes().max(1)),
            fail_rate: histogram.fail_rate(),
            space_bytes: space,
        });
    }
    {
        let target = truth.lp_distribution(2.0);
        let mut histogram = SampleHistogram::new();
        let mut space = 0;
        for seed in 0..draws as u64 {
            let mut s =
                SlidingWindowLpSampler::with_estimator_size(2.0, window, 0.1, 2, 24, 7_000 + seed);
            for &x in &stream {
                SlidingWindowSampler::update(&mut s, x);
            }
            space = s.space_bytes();
            histogram.record(SlidingWindowSampler::sample(&mut s));
        }
        rows.push(SamplerRow {
            measure: format!("sliding L2, W={window}"),
            tv_distance: histogram.tv_distance(&target),
            expected_noise: expected_sampling_tv(&target, histogram.successes().max(1)),
            fail_rate: histogram.fail_rate(),
            space_bytes: space,
        });
    }
    rows
}

/// E8: random-order collision samplers (Theorems 1.6 and 1.7).
pub fn e8_random_order(draws: usize) -> Vec<SamplerRow> {
    let counts: Vec<(u64, u64)> = vec![(1, 120), (2, 60), (3, 30), (4, 15), (5, 5)];
    let m: u64 = counts.iter().map(|&(_, c)| c).sum();
    let truth = FrequencyVector::from_counts(
        &counts
            .iter()
            .map(|&(i, c)| (i, c as i64))
            .collect::<Vec<_>>(),
    );
    let mut order_rng = default_rng(800);
    let mut rows = Vec::new();
    {
        let target = truth.lp_distribution(2.0);
        let mut histogram = SampleHistogram::new();
        let mut space = 0;
        for seed in 0..draws as u64 {
            let stream = random_order_stream(&mut order_rng, &counts);
            let mut s = RandomOrderL2Sampler::new(m, seed);
            s.update_all(&stream);
            space = s.space_bytes();
            histogram.record(s.sample());
        }
        rows.push(SamplerRow {
            measure: "random-order L2".into(),
            tv_distance: histogram.tv_distance(&target),
            expected_noise: expected_sampling_tv(&target, histogram.successes().max(1)),
            fail_rate: histogram.fail_rate(),
            space_bytes: space,
        });
    }
    {
        let target = truth.lp_distribution(3.0);
        let mut histogram = SampleHistogram::new();
        let mut space = 0;
        for seed in 0..draws as u64 {
            let stream = random_order_stream(&mut order_rng, &counts);
            let mut s = RandomOrderLpSampler::new(3, m, seed);
            s.update_all(&stream);
            space = s.space_bytes();
            histogram.record(s.sample());
        }
        rows.push(SamplerRow {
            measure: "random-order L3".into(),
            tv_distance: histogram.tv_distance(&target),
            expected_noise: expected_sampling_tv(&target, histogram.successes().max(1)),
            fail_rate: histogram.fail_rate(),
            space_bytes: space,
        });
    }
    rows
}

/// E9: the equality-reduction attack behind the turnstile lower bound.
#[derive(Debug, Clone)]
pub struct EqualityRow {
    /// Additive error of the sampler under attack.
    pub gamma: f64,
    /// Observed probability of declaring "equal" on unequal inputs.
    pub observed_advantage: f64,
    /// The Theorem 1.2 space lower bound implied by tolerating this γ, in
    /// bits.
    pub lower_bound_bits: f64,
}

/// E9: see [`EqualityRow`].
pub fn e9_equality(gammas: &[f64], n: usize, trials: usize) -> Vec<EqualityRow> {
    let mut rng = default_rng(900);
    gammas
        .iter()
        .map(|&gamma| {
            let reduction = EqualityReduction::new(gamma);
            let observed = reduction.refutation_error(n, trials, &mut rng);
            let bound_gamma = gamma.clamp(1e-12, 0.249);
            EqualityRow {
                gamma,
                observed_advantage: observed,
                lower_bound_bits: lower_bound_bits(n as u64, bound_gamma),
            }
        })
        .collect()
}

/// E10: the strict-turnstile multi-pass pass/space trade-off
/// (Theorem 1.5).
#[derive(Debug, Clone)]
pub struct MultiPassRow {
    /// The trade-off parameter γ (chunks per pass ≈ n^γ).
    pub gamma: f64,
    /// Passes needed over the stream.
    pub passes: usize,
    /// Peak number of live counters.
    pub peak_counters: usize,
    /// TV distance of the resulting samples from the exact `L_1` target.
    pub tv_distance: f64,
}

/// E10: see [`MultiPassRow`].
pub fn e10_multipass(universe: u64, stream_length: usize, gammas: &[f64]) -> Vec<MultiPassRow> {
    let mut rng = default_rng(1_000);
    let updates =
        tps_streams::generators::strict_turnstile_stream(&mut rng, universe, stream_length, 0.3);
    let truth = FrequencyVector::from_signed_stream(&updates);
    let target = truth.lp_distribution(1.0);
    gammas
        .iter()
        .map(|&gamma| {
            let sampler = MultiPassL1Sampler::new(universe, gamma);
            let mut histogram = SampleHistogram::new();
            let mut passes = 0;
            let mut peak = 0;
            let mut sample_rng = default_rng(1_001);
            for _ in 0..2_000 {
                let (outcome, report) = sampler.sample(&updates, &mut sample_rng);
                passes = report.passes;
                peak = report.peak_counters;
                histogram.record(outcome);
            }
            MultiPassRow {
                gamma,
                passes,
                peak_counters: peak,
                tv_distance: histogram.tv_distance(&target),
            }
        })
        .collect()
}

/// E11: matrix `L_{1,2}` row sampling (Theorem 3.7).
pub fn e11_matrix(columns: &[u64], draws: usize) -> Vec<SamplerRow> {
    columns
        .iter()
        .map(|&d| {
            let mut rng = default_rng(1_100 + d);
            let updates = matrix_stream(&mut rng, 128, d, 20_000);
            let mut truth = MatrixAccumulator::new();
            for u in &updates {
                truth.insert(u.row, u.col);
            }
            let target = truth.row_distribution(2);
            let mut histogram = SampleHistogram::new();
            let mut space = 0;
            for seed in 0..draws as u64 {
                let mut s = MatrixRowSampler::<RowL2>::l12(d as usize, 0.05, seed);
                for &u in &updates {
                    s.update(u);
                }
                space = s.space_bytes();
                histogram.record(s.sample());
            }
            SamplerRow {
                measure: format!("L(1,2) rows, d={d}"),
                tv_distance: tps_streams::stats::tv_distance(
                    &histogram.empirical_distribution(),
                    &target,
                ),
                expected_noise: expected_sampling_tv(&target, histogram.successes().max(1)),
                fail_rate: histogram.fail_rate(),
                space_bytes: space,
            }
        })
        .collect()
}

/// E12: one shard-count configuration of the sharded scatter-gather
/// front-end.
#[derive(Debug, Clone)]
pub struct ShardedRow {
    /// Number of shards (1 = the plain single-instance batched path).
    pub shards: usize,
    /// Wall-clock ingest throughput of the threaded front-end in millions
    /// of elements per second (best of the measured repetitions, to damp
    /// scheduler noise). Plateaus at the host's core count.
    pub melem_per_s: f64,
    /// Wall-clock throughput relative to the single-instance batched
    /// baseline.
    pub speedup_vs_single: f64,
    /// Critical-path throughput: `stream / max(coordinator scatter pass,
    /// slowest shard ingest)`, each stage measured directly by running it
    /// in isolation. Under the persistent runtime the coordinator's
    /// route-and-stage pass pipelines with the shard workers' ingest
    /// (chunk `c + 1` is routed while chunk `c` is being consumed), so
    /// the steady-state wall clock once `cores > shards` is the *slower*
    /// of the two stages, not their sum — the scaling metric that
    /// transfers across hosts.
    pub critical_path_melem_per_s: f64,
    /// Critical-path throughput relative to the single-instance baseline.
    pub critical_path_speedup: f64,
}

/// E12: the shard-count scaling curve of
/// [`ShardedSampler`](tps_core::sharded::ShardedSampler) ingest.
#[derive(Debug, Clone)]
pub struct ShardedScaling {
    /// Worker parallelism available to the process (shard workers beyond
    /// this count cannot add wall-clock speedup).
    pub cores: usize,
    /// Stream length of the workload.
    pub stream_length: usize,
    /// Single-instance batched ingest throughput (the baseline), Melem/s.
    pub single_melem_per_s: f64,
    /// One row per measured shard count.
    pub rows: Vec<ShardedRow>,
}

/// E12: ingest throughput of the hash-sharded L2 sampler across shard
/// counts on a Zipf(1.1) workload, against the single-instance batched
/// path. Each shard ingests on its own persistent worker thread fed by an
/// SPSC ring, so the curve tracks available hardware parallelism
/// (reported in `cores`): on a `c`-core host the wall-clock plateau is
/// bounded by `min(shards, c)` and, past that, by the coordinator's
/// route-and-stage pass. The timed region includes the final
/// [`ShardedSampler::flush`](tps_core::sharded::ShardedSampler::flush) so
/// enqueued-but-unapplied chunks cannot flatter the wall clock.
pub fn e12_sharded(stream_length: usize, universe: u64, shard_counts: &[usize]) -> ShardedScaling {
    use tps_core::sharded::{ShardedSamplerBuilder, ShardingStrategy};

    let mut rng = default_rng(1_200);
    let stream = zipfian_stream(&mut rng, universe, stream_length, 1.1);
    let repetitions = 3;

    let mut best_single = f64::MIN_POSITIVE;
    for rep in 0..repetitions {
        let mut sampler = TrulyPerfectLpSampler::new(2.0, universe, 0.1, 21 + rep);
        let start = Instant::now();
        sampler.update_batch(&stream);
        let rate = stream.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
        best_single = best_single.max(rate);
        assert_eq!(sampler.processed(), stream.len() as u64);
    }

    let rows = shard_counts
        .iter()
        .map(|&shards| {
            let mut best = f64::MIN_POSITIVE;
            let mut best_critical = f64::MIN_POSITIVE;
            for rep in 0..repetitions {
                let mut sharded = ShardedSamplerBuilder::new(shards)
                    .strategy(ShardingStrategy::Hash)
                    .seed(33 + rep)
                    .build(|idx| {
                        TrulyPerfectLpSampler::new(
                            2.0,
                            universe,
                            0.1,
                            77 + rep + ((idx as u64) << 8),
                        )
                    });
                let start = Instant::now();
                sharded.update_batch(&stream);
                sharded.flush();
                let rate = stream.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
                best = best.max(rate);
                assert_eq!(sharded.processed(), stream.len() as u64);

                // Critical path, measured stage by stage in isolation.
                // With one shard the runtime never starts (ingest is the
                // direct batched path, no routing at all); with k > 1 the
                // coordinator's scatter pass pipelines with the shard
                // workers, so the steady-state bound is the slower stage.
                let critical = if shards == 1 {
                    let mut shard_sampler =
                        TrulyPerfectLpSampler::new(2.0, universe, 0.1, 99 + rep);
                    let start = Instant::now();
                    shard_sampler.update_batch(&stream);
                    stream.len() as f64 / start.elapsed().as_secs_f64() / 1e6
                } else {
                    let scatter_start = Instant::now();
                    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); shards];
                    for &item in &stream {
                        buckets[sharded.hash_shard_of(item)].push(item);
                    }
                    let scatter_time = scatter_start.elapsed().as_secs_f64();
                    let slowest_ingest = buckets
                        .iter()
                        .map(|bucket| {
                            let mut shard_sampler =
                                TrulyPerfectLpSampler::new(2.0, universe, 0.1, 99 + rep);
                            let start = Instant::now();
                            // Chunked exactly like the runtime ships work,
                            // so per-shard batch sizes match the real path.
                            for chunk in bucket.chunks(32 * 1024) {
                                shard_sampler.update_batch(chunk);
                            }
                            start.elapsed().as_secs_f64()
                        })
                        .fold(0.0f64, f64::max);
                    stream.len() as f64 / scatter_time.max(slowest_ingest) / 1e6
                };
                best_critical = best_critical.max(critical);
            }
            ShardedRow {
                shards,
                melem_per_s: best,
                speedup_vs_single: best / best_single,
                critical_path_melem_per_s: best_critical,
                critical_path_speedup: best_critical / best_single,
            }
        })
        .collect();

    ShardedScaling {
        cores: std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
        stream_length,
        single_melem_per_s: best_single,
        rows,
    }
}

/// E13: one shard count of the persistent-runtime vs scoped-thread ingest
/// comparison.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Number of shards.
    pub shards: usize,
    /// Steady-state ingest throughput of the persistent worker-pool
    /// runtime: the stream is fed in batches and the final `flush` is
    /// inside the timed region. Best of the measured repetitions.
    pub runtime_melem_per_s: f64,
    /// The same workload through a re-implementation of the retired
    /// scoped-thread two-phase path (spawn a scatter crew and an ingest
    /// crew, then join, for *every* batch).
    pub scoped_melem_per_s: f64,
    /// `runtime / scoped` — ≥ 1 means the persistent pool is at least as
    /// fast as the architecture it replaced *on this host*; the ratio of
    /// two same-host wall clocks transfers across runners far better than
    /// either absolute rate.
    pub runtime_vs_scoped: f64,
}

/// E13: the persistent-runtime benchmark record (`BENCH_runtime.json`).
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Worker parallelism available to the process.
    pub cores: usize,
    /// Stream length of the workload.
    pub stream_length: usize,
    /// Items per `update_batch` call in the steady-state feed.
    pub batch_len: usize,
    /// One row per measured shard count.
    pub rows: Vec<RuntimeRow>,
    /// Batches between queries in the ingest-during-query leg.
    pub query_every_batches: usize,
    /// Ingest throughput of the query-free reference run (Melem/s).
    pub quiet_melem_per_s: f64,
    /// Ingest throughput with a snapshot-isolated query issued every
    /// `query_every_batches` batches, query time *included* in the wall
    /// clock (Melem/s).
    pub querying_melem_per_s: f64,
    /// `querying / quiet` — the acceptance bar asks ≥ 0.9 (queries cost
    /// at most 10% of ingest throughput).
    pub querying_vs_quiet: f64,
    /// Mean latency of one snapshot-isolated query on the live runtime
    /// (barrier + per-shard snapshot + restore + fold-merge + draw), µs.
    pub snapshot_query_micros: f64,
    /// Mean latency of the retired clone-and-merge query (deep-clone every
    /// shard, fold-merge, draw) on the same final state, µs.
    pub clone_merge_query_micros: f64,
}

/// Hash route of the scoped-thread comparator: splitmix64 finaliser +
/// Lemire range reduction, byte-identical to `ShardedSampler`'s hash
/// strategy so both legs of E13 ingest identical per-shard substreams.
fn scoped_shard_of(item: u64, shards: usize) -> usize {
    let mut z = item.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (((z as u128) * (shards as u128)) >> 64) as usize
}

/// The retired two-phase scoped-thread batch path, re-implemented as the
/// E13 comparator: a crew of scatter threads partitions positional chunks
/// of the batch into per-shard buffers, a crew of ingest threads drains
/// each shard's column in chunk order, and every batch pays the full
/// spawn/join round trip for both crews — exactly the per-batch overhead
/// the persistent runtime amortises away.
fn scoped_two_phase_ingest(shards: &mut [TrulyPerfectLpSampler], batch: &[u64]) {
    let k = shards.len();
    if k == 1 {
        shards[0].update_batch(batch);
        return;
    }
    let chunk_len = batch.len().div_ceil(k);
    let matrix: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = batch
            .chunks(chunk_len)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut row: Vec<Vec<u64>> = vec![Vec::new(); k];
                    for &item in chunk {
                        row[scoped_shard_of(item, k)].push(item);
                    }
                    row
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    std::thread::scope(|scope| {
        for (shard, sampler) in shards.iter_mut().enumerate() {
            let matrix = &matrix;
            scope.spawn(move || {
                for row in matrix {
                    sampler.update_batch(&row[shard]);
                }
            });
        }
    });
}

/// E13: steady-state ingest of the persistent sharded runtime vs the
/// retired scoped-thread path, plus the cost of snapshot-isolated queries
/// issued mid-ingest. Streams are fed in `batch_len`-sized batches (the
/// steady-state shape the runtime is built for, as opposed to E12's one
/// monolithic batch); both legs of every comparison run on the same host
/// within the same call, so the recorded *ratios* transfer across runners.
pub fn e13_runtime(stream_length: usize, universe: u64, shard_counts: &[usize]) -> RuntimeReport {
    use tps_core::sharded::{ShardedSamplerBuilder, ShardingStrategy};

    let batch_len = 64 * 1024;
    let mut rng = default_rng(1_300);
    let stream = zipfian_stream(&mut rng, universe, stream_length, 1.1);
    let repetitions = 3;
    let new_shard = |rep: u64, idx: usize| {
        TrulyPerfectLpSampler::new(2.0, universe, 0.1, 177 + rep + ((idx as u64) << 8))
    };

    let rows: Vec<RuntimeRow> = shard_counts
        .iter()
        .map(|&shards| {
            let mut best_runtime = f64::MIN_POSITIVE;
            let mut best_scoped = f64::MIN_POSITIVE;
            for rep in 0..repetitions {
                let mut sharded = ShardedSamplerBuilder::new(shards)
                    .strategy(ShardingStrategy::Hash)
                    .seed(55 + rep)
                    .build(|idx| new_shard(rep, idx));
                let start = Instant::now();
                for batch in stream.chunks(batch_len) {
                    sharded.update_batch(batch);
                }
                sharded.flush();
                let rate = stream.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
                best_runtime = best_runtime.max(rate);
                assert_eq!(sharded.processed(), stream.len() as u64);

                let mut shard_samplers: Vec<_> =
                    (0..shards).map(|idx| new_shard(rep, idx)).collect();
                let start = Instant::now();
                for batch in stream.chunks(batch_len) {
                    scoped_two_phase_ingest(&mut shard_samplers, batch);
                }
                let rate = stream.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
                best_scoped = best_scoped.max(rate);
            }
            RuntimeRow {
                shards,
                runtime_melem_per_s: best_runtime,
                scoped_melem_per_s: best_scoped,
                runtime_vs_scoped: best_runtime / best_scoped,
            }
        })
        .collect();

    // Ingest-during-query leg, at the acceptance shard count (4 when
    // measured, else the largest measured count).
    let iq_shards = shard_counts
        .iter()
        .copied()
        .find(|&s| s == 4)
        .or_else(|| shard_counts.iter().copied().max())
        .unwrap_or(4);
    let query_every_batches = 8;
    let mut best_quiet = f64::MIN_POSITIVE;
    let mut best_querying = f64::MIN_POSITIVE;
    let mut snapshot_query_secs = 0.0f64;
    let mut snapshot_queries = 0usize;
    let mut clone_merge_secs = 0.0f64;
    let mut clone_merge_queries = 0usize;
    for rep in 0..repetitions {
        let mut quiet = ShardedSamplerBuilder::new(iq_shards)
            .strategy(ShardingStrategy::Hash)
            .seed(55 + rep)
            .build(|idx| new_shard(rep, idx));
        let start = Instant::now();
        for batch in stream.chunks(batch_len) {
            quiet.update_batch(batch);
        }
        quiet.flush();
        let rate = stream.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
        best_quiet = best_quiet.max(rate);

        let mut querying = ShardedSamplerBuilder::new(iq_shards)
            .strategy(ShardingStrategy::Hash)
            .seed(55 + rep)
            .build(|idx| new_shard(rep, idx));
        let start = Instant::now();
        for (index, batch) in stream.chunks(batch_len).enumerate() {
            querying.update_batch(batch);
            if (index + 1) % query_every_batches == 0 {
                let query_start = Instant::now();
                let _ = querying.sample();
                snapshot_query_secs += query_start.elapsed().as_secs_f64();
                snapshot_queries += 1;
            }
        }
        querying.flush();
        let rate = stream.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
        best_querying = best_querying.max(rate);

        // The retired query path on the same final state: `clone()`
        // quiesces and detaches from the runtime, so `merged()` on the
        // clone is exactly the old deep-clone + fold-merge + draw.
        let mut reference = querying.clone();
        for _ in 0..query_every_batches {
            let query_start = Instant::now();
            let _ = reference.merged().sample();
            clone_merge_secs += query_start.elapsed().as_secs_f64();
            clone_merge_queries += 1;
        }
    }

    RuntimeReport {
        cores: std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1),
        stream_length,
        batch_len,
        rows,
        query_every_batches,
        quiet_melem_per_s: best_quiet,
        querying_melem_per_s: best_querying,
        querying_vs_quiet: best_querying / best_quiet,
        snapshot_query_micros: snapshot_query_secs / snapshot_queries.max(1) as f64 * 1e6,
        clone_merge_query_micros: clone_merge_secs / clone_merge_queries.max(1) as f64 * 1e6,
    }
}

/// E14: incremental vs full checkpointing on a hot-shard Zipf workload.
#[derive(Debug, Clone)]
pub struct CheckpointBench {
    /// Stream length of the workload.
    pub stream_length: usize,
    /// Checkpoints taken (one per ingest slice).
    pub checkpoints: usize,
    /// Frames in the chain that were encoded as deltas.
    pub delta_frames: usize,
    /// Frames in the chain that were full rebases (including the first).
    pub full_frames: usize,
    /// Mean size of the sampler's full snapshot across epochs, bytes.
    pub full_snapshot_bytes_mean: f64,
    /// Mean size of the delta frames actually written, bytes.
    pub delta_frame_bytes_mean: f64,
    /// `full_snapshot_bytes_mean / delta_frame_bytes_mean` — the
    /// acceptance bar asks ≥ 4 (deltas at least 4x smaller than fulls).
    pub full_over_delta: f64,
    /// Total bytes appended to the chain vs always writing full frames.
    pub chain_bytes_vs_full: f64,
    /// Wall-clock to replay the whole chain and restore a sampler, µs.
    pub recovery_micros: f64,
    /// Whether the replayed state is byte-identical to the live sampler's
    /// final snapshot (the recovery contract of the ingest service).
    pub recovery_byte_identical: bool,
}

/// E14: checkpoint every `stream_length / checkpoints` updates of a
/// Zipf(1.5) hot-shard stream through
/// [`IncrementalCheckpointer`](tps_streams::codec::delta::IncrementalCheckpointer),
/// then recover by replaying the chain — the single-shard core of the
/// `tps-service` durability loop.
///
/// Between consecutive checkpoints the skewed stream touches few distinct
/// items, so most of the sampler's sealed snapshot is unchanged and the
/// delta encoder should emit mostly copy ops. The report records how much
/// smaller the deltas actually are and proves recovery is byte-exact.
pub fn e14_checkpoint(stream_length: usize, universe: u64, checkpoints: usize) -> CheckpointBench {
    use tps_streams::codec::delta::{CheckpointReplayer, IncrementalCheckpointer};
    use tps_streams::{Restore, Snapshot};

    let mut rng = default_rng(1_414);
    let stream = zipfian_stream(&mut rng, universe, stream_length, 1.5);
    let slice_len = stream.len().div_ceil(checkpoints.max(1));

    let mut sampler = TrulyPerfectLpSampler::new(2.0, universe, 0.1, 1_414);
    let mut writer = IncrementalCheckpointer::new();
    let mut chain: Vec<Vec<u8>> = Vec::new();
    let mut full_bytes = 0usize;
    let mut delta_bytes = 0usize;
    let mut delta_frames = 0usize;
    let mut full_frames = 0usize;
    for (index, slice) in stream.chunks(slice_len).enumerate() {
        sampler.update_batch(slice);
        let epoch = index as u64 + 1;
        let full = sampler.snapshot();
        full_bytes += full.len();
        let frame = writer.checkpoint_bytes(full, epoch);
        if frame.is_delta() {
            delta_frames += 1;
            delta_bytes += frame.bytes().len();
        } else {
            full_frames += 1;
        }
        chain.push(frame.bytes().to_vec());
    }

    let start = Instant::now();
    let mut replayer = CheckpointReplayer::new();
    for frame in &chain {
        replayer.apply(frame).expect("own chain replays");
    }
    let (_, recovered_bytes) = replayer.into_current().expect("non-empty chain");
    let recovered =
        TrulyPerfectLpSampler::restore(&recovered_bytes).expect("recovered bytes restore");
    let recovery_micros = start.elapsed().as_secs_f64() * 1e6;

    let live = sampler.snapshot();
    let recovery_byte_identical = recovered_bytes == live && recovered.snapshot() == live;

    let taken = delta_frames + full_frames;
    let full_snapshot_bytes_mean = full_bytes as f64 / taken.max(1) as f64;
    let delta_frame_bytes_mean = delta_bytes as f64 / delta_frames.max(1) as f64;
    let chain_total: usize = chain.iter().map(Vec::len).sum();
    CheckpointBench {
        stream_length,
        checkpoints: taken,
        delta_frames,
        full_frames,
        full_snapshot_bytes_mean,
        delta_frame_bytes_mean,
        full_over_delta: full_snapshot_bytes_mean / delta_frame_bytes_mean.max(1.0),
        chain_bytes_vs_full: chain_total as f64 / full_bytes.max(1) as f64,
        recovery_micros,
        recovery_byte_identical,
    }
}

/// F1: smooth-histogram checkpoint counts (Figure 1's structure).
#[derive(Debug, Clone)]
pub struct CheckpointRow {
    /// Window size.
    pub window: u64,
    /// Number of live checkpoints after a long stream.
    pub checkpoints: usize,
    /// Whether the first two checkpoints sandwich the window boundary.
    pub sandwich_holds: bool,
}

/// F1: see [`CheckpointRow`].
pub fn f1_checkpoints(windows: &[u64]) -> Vec<CheckpointRow> {
    #[derive(Debug, Default)]
    struct CountEstimator {
        count: u64,
    }
    impl tps_streams::Estimator for CountEstimator {
        fn update(&mut self, _item: u64) {
            self.count += 1;
        }
        fn estimate(&self) -> f64 {
            self.count as f64
        }
    }
    windows
        .iter()
        .map(|&window| {
            let mut hist = SmoothHistogram::new(window, 0.2, CountEstimator::default);
            let length = 5 * window;
            for t in 0..length {
                hist.update(t % 97);
            }
            let starts = hist.checkpoint_starts();
            let boundary = length - window + 1;
            let sandwich_holds = starts.first().map(|&s| s <= boundary).unwrap_or(false)
                && starts.get(1).map(|&s| s >= boundary).unwrap_or(false);
            CheckpointRow {
                window,
                checkpoints: hist.checkpoint_count(),
                sandwich_holds,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_rows_have_one_point_per_universe() {
        let rows = e1_lp_space(&[64, 256], &[2.0], 0.2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].points.len(), 2);
        assert!(rows[0].points[1].1 > rows[0].points[0].1);
    }

    #[test]
    fn e9_zero_gamma_has_zero_advantage() {
        let rows = e9_equality(&[0.0], 32, 500);
        assert_eq!(rows[0].observed_advantage, 0.0);
    }

    #[test]
    fn e14_deltas_beat_fulls_and_recovery_is_exact() {
        let bench = e14_checkpoint(200_000, 4_096, 50);
        assert_eq!(bench.checkpoints, 50);
        assert!(bench.delta_frames > 0, "no deltas taken: {bench:?}");
        assert!(bench.recovery_byte_identical, "recovery drifted: {bench:?}");
        assert!(
            bench.full_over_delta >= 4.0,
            "deltas not 4x smaller: {bench:?}"
        );
    }

    #[test]
    fn f1_reports_sandwich() {
        let rows = f1_checkpoints(&[500]);
        assert!(rows[0].sandwich_holds);
        assert!(rows[0].checkpoints > 2);
    }
}
