//! E13 benchmark: the persistent sharded runtime under its steady-state
//! shape — a long stream arriving in batches — plus the cost of
//! consistent queries issued mid-ingest.
//!
//! Three groups:
//!
//! * `e13_runtime_ingest` — batched feed through the persistent worker
//!   pool at several shard counts, against a re-implementation of the
//!   retired scoped-thread two-phase path that pays a spawn/join round
//!   trip per batch (the architecture the runtime replaced).
//! * `e13_query_during_ingest` — the same feed with a consistent
//!   `sample()` every 8 batches; the gap to the query-free group is the
//!   price of queries on the ingest path.
//! * `e13_query_latency` — one query on a built-up, drained state: the
//!   live runtime's barrier + clone + fold-merge (id `snapshot_isolated`,
//!   kept from when it also snapshot and restored every shard) against
//!   clone + fold-merge on an identical detached clone.
//!
//! Every timed closure that feeds the runtime ends with `flush()`:
//! `update_batch` returns once the batch is *enqueued*, so the wall clock
//! must include draining it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::{ShardedSampler, ShardedSamplerBuilder, ShardingStrategy};
use tps_random::default_rng;
use tps_streams::generators::zipfian_stream;
use tps_streams::StreamSampler;

const BATCH_LEN: usize = 64 * 1024;

fn new_sharded(shards: usize) -> ShardedSampler<TrulyPerfectLpSampler> {
    ShardedSamplerBuilder::new(shards)
        .strategy(ShardingStrategy::Hash)
        .seed(5)
        .build(|idx| TrulyPerfectLpSampler::new(2.0, 4_096, 0.1, 40 + idx as u64))
}

/// The retired two-phase scoped-thread batch path (spawn a scatter crew
/// and an ingest crew per batch), kept as the comparator the runtime's
/// amortised thread costs are measured against. Routing matches
/// `ShardedSampler`'s hash strategy (splitmix64 + Lemire reduction).
fn scoped_shard_of(item: u64, shards: usize) -> usize {
    let mut z = item.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (((z as u128) * (shards as u128)) >> 64) as usize
}

fn scoped_two_phase_ingest(shards: &mut [TrulyPerfectLpSampler], batch: &[u64]) {
    let k = shards.len();
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

fn bench_runtime_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_runtime_ingest");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    let mut rng = default_rng(13);
    let stream = zipfian_stream(&mut rng, 4_096, 1_000_000, 1.1);
    group.throughput(Throughput::Elements(stream.len() as u64));

    for &shards in &[2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("persistent_runtime", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut sharded = new_sharded(shards);
                    for batch in stream.chunks(BATCH_LEN) {
                        sharded.update_batch(batch);
                    }
                    sharded.flush();
                    sharded.processed()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("scoped_per_batch", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut samplers: Vec<_> = (0..shards)
                        .map(|idx| TrulyPerfectLpSampler::new(2.0, 4_096, 0.1, 40 + idx as u64))
                        .collect();
                    for batch in stream.chunks(BATCH_LEN) {
                        scoped_two_phase_ingest(&mut samplers, batch);
                    }
                    samplers.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_query_during_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_query_during_ingest");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    let mut rng = default_rng(13);
    let stream = zipfian_stream(&mut rng, 4_096, 1_000_000, 1.1);
    group.throughput(Throughput::Elements(stream.len() as u64));

    group.bench_function("query_free", |b| {
        b.iter(|| {
            let mut sharded = new_sharded(4);
            for batch in stream.chunks(BATCH_LEN) {
                sharded.update_batch(batch);
            }
            sharded.flush();
            sharded.processed()
        })
    });
    group.bench_function("query_every_8_batches", |b| {
        b.iter(|| {
            let mut sharded = new_sharded(4);
            let mut draws = 0u64;
            for (index, batch) in stream.chunks(BATCH_LEN).enumerate() {
                sharded.update_batch(batch);
                if (index + 1) % 8 == 0 && sharded.sample().is_index() {
                    draws += 1;
                }
            }
            sharded.flush();
            draws
        })
    });
    group.finish();
}

fn bench_query_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_query_latency");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    let mut rng = default_rng(13);
    let stream = zipfian_stream(&mut rng, 4_096, 1_000_000, 1.1);

    // Built-up runtime state, drained: the measured query is the
    // barrier/clone/merge machinery itself, not a backlog flush.
    let mut live = new_sharded(4);
    live.update_batch(&stream);
    live.flush();
    group.bench_function("snapshot_isolated", |b| b.iter(|| live.sample().is_index()));

    // The same fold on identical state without the barrier: `clone()`
    // detaches from the runtime, so `merged()` is clone + fold + draw.
    let mut detached = live.clone();
    group.bench_function("clone_and_merge", |b| {
        b.iter(|| detached.merged().sample().is_index())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_runtime_ingest,
    bench_query_during_ingest,
    bench_query_latency
);
criterion_main!(benches);
