//! E12 benchmark: ingest throughput of the sharded front-end against the
//! single-instance batched path, on the 1M-update Zipf(1.1) workload the
//! perf gates track.
//!
//! Shards ingest on the persistent worker-pool runtime — each shard a
//! long-lived thread fed by a bounded channel, with the coordinator's
//! route-and-stage pass pipelining against shard ingest — so the
//! shard-count curve follows the host's available parallelism; routing
//! cost and shard skew are the overheads the speedup has to amortise.
//! Every timed closure ends with `flush()`: `update_batch` returns once
//! the batch is *enqueued*, so the wall clock must include draining it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::ShardedSamplerBuilder;
use tps_random::default_rng;
use tps_streams::generators::zipfian_stream;
use tps_streams::StreamSampler;

fn bench_sharded_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_sharded_ingest");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    let mut rng = default_rng(12);
    let stream = zipfian_stream(&mut rng, 4_096, 1_000_000, 1.1);
    group.throughput(Throughput::Elements(stream.len() as u64));

    group.bench_function("single_instance_batch", |b| {
        b.iter(|| {
            let mut sampler = TrulyPerfectLpSampler::new(2.0, 4_096, 0.1, 9);
            sampler.update_batch(&stream);
            sampler.processed()
        })
    });

    for &shards in &[2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("hash_sharded", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut sharded = ShardedSamplerBuilder::new(shards)
                        .seed(5)
                        .build(|idx| TrulyPerfectLpSampler::new(2.0, 4_096, 0.1, 40 + idx as u64));
                    sharded.update_batch(&stream);
                    sharded.flush();
                    sharded.processed()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_ingest);
criterion_main!(benches);
