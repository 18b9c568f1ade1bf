//! The snapshot round-trip law, for every sampler, sketch and window type:
//!
//! > encode → decode → continue ingesting must be **byte-identical**
//! > (samples, estimates, and RNG position included) to the uninterrupted
//! > run.
//!
//! This is the same bar `tests/engine_golden.rs` set for the PR 2 engine
//! refactor, applied to the checkpoint/restore path. The check is done at
//! the strongest available granularity: after the restored and the
//! uninterrupted instance both ingest the same suffix (and answer the same
//! queries, which consume RNG draws), their snapshots must be equal as
//! byte strings — snapshots are canonical, so byte equality is logical
//! state equality, RNG position included.

use tps_core::engine::SkipAheadEngine;
use tps_core::f0::{SlidingWindowF0Sampler, TrulyPerfectF0Sampler};
use tps_core::framework::{MeasureNormalizer, TrulyPerfectGSampler};
use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::ShardedSamplerBuilder;
use tps_core::sliding::{SlidingWindowGSampler, SlidingWindowLpSampler};
use tps_core::turnstile::StrictTurnstileF0Sampler;
use tps_random::{default_rng, StreamRng, Xoshiro256};
use tps_sketches::exact_counter::SuffixCountTable;
use tps_sketches::{AmsFpEstimator, MisraGries, SparseRecovery};
use tps_streams::codec::{Restore, Snapshot};
use tps_streams::generators::zipfian_stream;
use tps_streams::{
    Estimator, Huber, Item, Lp, SignedUpdate, SlidingWindowSampler, StreamSampler,
    TurnstileSampler, L1L2,
};

/// The core law: snapshot `live`, restore it, then drive both copies
/// through the same suffix of work; every intermediate and final snapshot
/// must agree byte for byte (and the snapshot itself must be canonical:
/// re-encoding the restored copy reproduces the input bytes exactly).
fn assert_roundtrip<T: Snapshot + Restore>(live: &mut T, mut drive: impl FnMut(&mut T)) {
    let bytes = live.snapshot();
    let mut restored = T::restore(&bytes).expect("snapshot must restore");
    assert_eq!(
        restored.snapshot(),
        bytes,
        "snapshot is not canonical: restore + re-encode changed the bytes"
    );
    drive(live);
    drive(&mut restored);
    assert_eq!(
        live.snapshot(),
        restored.snapshot(),
        "continued run diverged from the uninterrupted one"
    );
}

/// A skewed deterministic workload (Zipf 1.2) long enough to overflow the
/// small samplers' thresholds.
fn workload(seed: u64, len: usize, universe: u64) -> Vec<Item> {
    let mut rng = default_rng(seed);
    zipfian_stream(&mut rng, universe, len, 1.2)
}

#[test]
fn engine_roundtrip_is_byte_identical() {
    for seed in 0..4u64 {
        let stream = workload(seed, 4_000, 97);
        for split in [0usize, 1, 1_000, 3_999, 4_000] {
            let mut engine = SkipAheadEngine::with_seed(6, seed);
            engine.update_batch(&stream[..split]);
            assert_roundtrip(&mut engine, |e| {
                for chunk in stream[split..].chunks(313) {
                    e.update_batch(chunk);
                }
                // Query-path draws move the RNG; they must continue the
                // same sequence on both sides.
                let _ = e.first_accepted(|_, c| 1.0 / (c + 1) as f64);
            });
        }
    }
}

#[test]
fn g_sampler_roundtrip_is_byte_identical() {
    for seed in 0..3u64 {
        let stream = workload(10 + seed, 3_000, 61);
        let g = Huber::new(2.0);
        let mut sampler =
            TrulyPerfectGSampler::with_instances(g, MeasureNormalizer::new(g), 12, seed);
        sampler.update_batch(&stream[..1_500]);
        assert_roundtrip(&mut sampler, |s| {
            s.update_batch(&stream[1_500..]);
            for _ in 0..4 {
                let _ = s.sample();
            }
        });
        // A second measure family through the same generic impl.
        let mut l1l2 =
            TrulyPerfectGSampler::with_instances(L1L2, MeasureNormalizer::new(L1L2), 8, seed);
        l1l2.update_batch(&stream[..700]);
        assert_roundtrip(&mut l1l2, |s| {
            s.update_batch(&stream[700..]);
            let _ = s.sample();
        });
    }
}

#[test]
fn lp_sampler_roundtrip_both_regimes() {
    for seed in 0..3u64 {
        let stream = workload(20 + seed, 3_000, 61);
        // Misra–Gries regime (p in (1, 2]).
        let mut heavy = TrulyPerfectLpSampler::new(2.0, 256, 0.1, seed);
        heavy.update_batch(&stream[..2_000]);
        assert_roundtrip(&mut heavy, |s| {
            s.update_batch(&stream[2_000..]);
            for _ in 0..4 {
                let _ = s.sample();
            }
        });
        // p = 1 degenerates to plain reservoir sampling.
        let mut l1 = TrulyPerfectLpSampler::new(1.0, 256, 0.1, seed);
        l1.update_batch(&stream[..500]);
        assert_roundtrip(&mut l1, |s| {
            s.update_batch(&stream[500..]);
            let _ = s.sample();
        });
        // Fractional regime (p < 1).
        let mut frac = TrulyPerfectLpSampler::fractional(0.5, 3_000, 0.2, seed);
        frac.update_batch(&stream[..1_000]);
        assert_roundtrip(&mut frac, |s| {
            s.update_batch(&stream[1_000..]);
            let _ = s.sample();
        });
    }
}

#[test]
fn f0_sampler_roundtrip_small_and_overflowed_support() {
    for seed in 0..3u64 {
        // Small support: the first-distinct side answers exactly.
        let small: Vec<Item> = (0..600u64).map(|i| i % 9).collect();
        let mut sampler = TrulyPerfectF0Sampler::new(10_000, 0.1, seed);
        sampler.update_batch(&small[..300]);
        assert_roundtrip(&mut sampler, |s| {
            s.update_batch(&small[300..]);
            for _ in 0..4 {
                let _ = s.sample();
            }
        });
        // Overflowed support: the pre-drawn random subsets answer.
        let wide = workload(30 + seed, 2_000, 900);
        let mut sampler = TrulyPerfectF0Sampler::new(1_000, 0.05, seed);
        sampler.update_batch(&wide[..1_200]);
        assert_roundtrip(&mut sampler, |s| {
            s.update_batch(&wide[1_200..]);
            for _ in 0..4 {
                let _ = s.sample();
            }
        });
    }
}

#[test]
fn sliding_f0_sampler_roundtrip() {
    for seed in 0..3u64 {
        let stream = workload(40 + seed, 1_500, 400);
        let mut sampler = SlidingWindowF0Sampler::new(1_000, 200, 0.1, seed);
        for &x in &stream[..900] {
            SlidingWindowSampler::update(&mut sampler, x);
        }
        assert_roundtrip(&mut sampler, |s| {
            for &x in &stream[900..] {
                SlidingWindowSampler::update(s, x);
            }
            for _ in 0..4 {
                let _ = SlidingWindowSampler::sample(s);
            }
        });
    }
}

#[test]
fn sliding_g_sampler_roundtrip_across_epoch_boundaries() {
    for seed in 0..3u64 {
        let stream = workload(50 + seed, 1_300, 31);
        for split in [0usize, 137, 650, 1_300] {
            // Window 100 → the 1300-update stream crosses 13 cohort epochs,
            // so cohort birth/retirement happens on both sides of the cut.
            let mut sampler = SlidingWindowGSampler::new(Lp::new(1.0), 100, 0.1, seed);
            sampler.update_batch(&stream[..split]);
            assert_roundtrip(&mut sampler, |s| {
                for chunk in stream[split..].chunks(73) {
                    s.update_batch(chunk);
                }
                for _ in 0..4 {
                    let _ = SlidingWindowSampler::sample(s);
                }
            });
        }
    }
}

#[test]
fn sliding_lp_sampler_roundtrip_with_estimator() {
    for seed in 0..2u64 {
        let stream = workload(60 + seed, 700, 23);
        let mut sampler = SlidingWindowLpSampler::with_estimator_size(2.0, 64, 0.2, 2, 8, seed);
        sampler.update_batch(&stream[..350]);
        assert_roundtrip(&mut sampler, |s| {
            s.update_batch(&stream[350..]);
            for _ in 0..3 {
                let _ = SlidingWindowSampler::sample(s);
            }
        });
    }
}

/// The name predates the removal of round-robin routing; hash routing is
/// the only strategy left.
#[test]
fn sharded_sampler_roundtrip_both_strategies() {
    let stream = workload(70, 4_000, 61);
    let mut sharded = ShardedSamplerBuilder::new(3)
        .seed(7)
        .build(|idx| TrulyPerfectLpSampler::new(2.0, 256, 0.1, 7 ^ ((idx as u64) << 32)));
    sharded.update_batch(&stream[..2_500]);
    assert_roundtrip(&mut sharded, |s| {
        for chunk in stream[2_500..].chunks(401) {
            s.update_batch(chunk);
        }
        // Queries fold-merge clones and draw from the front-end RNG.
        for _ in 0..3 {
            let _ = s.sample();
        }
    });
}

/// Restore-then-merge across "processes": shards snapshotted from one
/// front-end and restored elsewhere must merge into exactly the state the
/// original front-end's own query-time merge produces.
#[test]
fn sharded_snapshots_restore_then_merge_across_process_boundary() {
    use tps_streams::MergeableSampler;
    let stream = workload(80, 6_000, 61);
    let mut sharded = ShardedSamplerBuilder::new(4)
        .seed(11)
        .build(|idx| TrulyPerfectLpSampler::new(2.0, 256, 0.1, 11 ^ ((idx as u64) << 32)));
    sharded.update_batch(&stream);
    // Ship each shard through the wire format, as a scatter-gather
    // deployment would.
    let shipped: Vec<Vec<u8>> = (0..4).map(|j| sharded.shard(j).snapshot()).collect();
    let mut gathered: Vec<TrulyPerfectLpSampler> = shipped
        .iter()
        .map(|bytes| TrulyPerfectLpSampler::restore(bytes).expect("shard restores"))
        .collect();
    // Merge the restored shards with the same coin sequence the front-end
    // would use, and compare against its own merged instance byte for byte.
    let mut coins_a = Xoshiro256::seed_from_u64(99);
    let mut coins_b = Xoshiro256::seed_from_u64(99);
    let mut merged_remote = gathered.remove(0);
    for shard in gathered {
        merged_remote = merged_remote.merge(shard, &mut coins_a);
    }
    let mut merged_local = TrulyPerfectLpSampler::restore(&shipped[0]).unwrap();
    for bytes in &shipped[1..] {
        let shard = TrulyPerfectLpSampler::restore(bytes).unwrap();
        merged_local = merged_local.merge(shard, &mut coins_b);
    }
    assert_eq!(merged_remote.snapshot(), merged_local.snapshot());
    assert_eq!(merged_remote.processed(), stream.len() as u64);
}

#[test]
fn sketches_roundtrip_is_byte_identical() {
    let stream = workload(90, 5_000, 300);

    let mut mg = MisraGries::new(24);
    mg.update_batch(&stream[..2_500]);
    assert_roundtrip(&mut mg, |s| {
        s.update_batch(&stream[2_500..]);
    });

    let mut table = SuffixCountTable::new();
    table.track(3);
    table.track(7);
    table.update_batch(&stream[..2_500]);
    assert_roundtrip(&mut table, |t| {
        t.update_batch(&stream[2_500..]);
    });

    let mut ams = AmsFpEstimator::new(2.0, 3, 16, default_rng(6));
    for &x in &stream[..2_500] {
        Estimator::update(&mut ams, x);
    }
    assert_roundtrip(&mut ams, |e| {
        for &x in &stream[2_500..] {
            Estimator::update(e, x);
        }
    });
    // Estimates of the restored and uninterrupted estimator agree exactly.
    let restored = AmsFpEstimator::restore(&ams.snapshot()).unwrap();
    assert_eq!(
        ams.fp_estimate().to_bits(),
        restored.fp_estimate().to_bits()
    );
}

#[test]
fn window_estimator_roundtrip_is_byte_identical() {
    use tps_window::SlidingWindowLpEstimate;
    let stream = workload(95, 900, 40);
    let mut est = SlidingWindowLpEstimate::new(2.0, 150, 2, 10, default_rng(8));
    for &x in &stream[..450] {
        est.update(x);
    }
    assert_roundtrip(&mut est, |e| {
        for &x in &stream[450..] {
            e.update(x);
        }
    });
    let restored = SlidingWindowLpEstimate::restore(&est.snapshot()).unwrap();
    assert_eq!(
        est.lp_estimate().to_bits(),
        restored.lp_estimate().to_bits()
    );
}

#[test]
fn rng_roundtrip_preserves_draw_sequence() {
    let mut rng = Xoshiro256::seed_from_u64(123);
    for _ in 0..1_000 {
        rng.next_u64();
    }
    assert_roundtrip(&mut rng, |r| {
        for _ in 0..100 {
            r.next_u64();
        }
    });
}

/// A lockstep-merged sliding sampler (the PR 3 query-time snapshot state:
/// merged cohort engines carry the *sum* of the shards' seen counts) must
/// round-trip too — shipping the merged query snapshot is exactly the
/// scatter-gather use case the wire format exists for.
#[test]
fn merged_sliding_sampler_snapshot_roundtrips() {
    for seed in 0..3u64 {
        let stream_a = workload(100 + seed, 390, 31);
        let stream_b: Vec<Item> = workload(200 + seed, 390, 31)
            .iter()
            .map(|&x| x + 40)
            .collect();
        let mut a = SlidingWindowGSampler::new(Lp::new(1.0), 100, 0.1, seed);
        let mut b = SlidingWindowGSampler::new(Lp::new(1.0), 100, 0.1, 77 + seed);
        a.update_batch(&stream_a);
        b.update_batch(&stream_b);
        let mut merged = a.merge(b);
        // The merged sampler is a query-time snapshot: drive queries only.
        assert_roundtrip(&mut merged, |s| {
            for _ in 0..4 {
                let _ = SlidingWindowSampler::sample(s);
            }
        });
    }
}

/// A merged sampler that (against advice, but through the public API)
/// keeps ingesting is still a reachable state and must round-trip: its
/// cohort engines carry summed seen counts plus post-merge updates.
#[test]
fn merged_then_updated_sliding_sampler_roundtrips() {
    let mut a = SlidingWindowGSampler::new(Lp::new(1.0), 10, 0.2, 5);
    let mut b = SlidingWindowGSampler::new(Lp::new(1.0), 10, 0.2, 6);
    for t in 0..5u64 {
        SlidingWindowSampler::update(&mut a, t);
        SlidingWindowSampler::update(&mut b, 100 + t);
    }
    let mut merged = a.merge(b);
    SlidingWindowSampler::update(&mut merged, 7);
    assert_roundtrip(&mut merged, |s| {
        SlidingWindowSampler::update(s, 8);
        let _ = SlidingWindowSampler::sample(s);
    });
}

/// Signed (turnstile) workload derived from the Zipf stream: every item
/// is inserted, and every third position also gets an insert-then-delete
/// pair, so negative deltas flow through the syndromes while every
/// prefix stays a strict turnstile stream (no count goes negative).
fn signed_workload(seed: u64, len: usize, universe: u64) -> Vec<SignedUpdate> {
    let items = workload(seed, len, universe);
    let mut out = Vec::with_capacity(len * 2);
    for (i, &item) in items.iter().enumerate() {
        out.push(SignedUpdate { item, delta: 1 });
        if i % 3 == 0 {
            out.push(SignedUpdate { item, delta: 1 });
            out.push(SignedUpdate { item, delta: -1 });
        }
    }
    out
}

#[test]
fn turnstile_sampler_roundtrip_is_byte_identical() {
    for seed in 0..3u64 {
        let stream = signed_workload(110 + seed, 1_800, 120);
        for split in [0usize, 1, stream.len() / 2, stream.len()] {
            let mut sampler = StrictTurnstileF0Sampler::new(120, seed);
            sampler.update_batch(&stream[..split]);
            assert_roundtrip(&mut sampler, |s| {
                for chunk in stream[split..].chunks(257) {
                    s.update_batch(chunk);
                }
                // Draws decode the live syndromes and consume RNG; the
                // restored copy must continue the identical sequence.
                for _ in 0..4 {
                    let _ = s.sample();
                }
            });
        }
    }
}

#[test]
fn sparse_recovery_roundtrip_is_byte_identical() {
    let stream = signed_workload(120, 1_000, 80);
    let mut recovery = SparseRecovery::new(12, 80);
    for &u in &stream[..600] {
        recovery.update(u);
    }
    assert_roundtrip(&mut recovery, |r| {
        for &u in &stream[600..] {
            r.update(u);
        }
    });
}

/// The name predates the removal of round-robin routing; hash routing is
/// the only strategy left.
#[test]
fn sharded_turnstile_roundtrip_both_strategies() {
    let stream = signed_workload(130, 2_400, 150);
    // One shared seed across shards: the turnstile merge law requires
    // identical pre-drawn subsets.
    let mut sharded = ShardedSamplerBuilder::new(3)
        .seed(13)
        .build_turnstile(|_idx| StrictTurnstileF0Sampler::new(150, 13));
    sharded.ingest_batch(&stream[..1_500]);
    assert_roundtrip(&mut sharded, |s| {
        for chunk in stream[1_500..].chunks(311) {
            s.ingest_batch(chunk);
        }
        // Queries fold-merge clones and draw from the merged state.
        for _ in 0..3 {
            let _ = TurnstileSampler::sample(s);
        }
    });
}
