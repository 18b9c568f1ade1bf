//! Ablation benchmarks for the design choices called out in `DESIGN.md` §4:
//!
//! 1. the cost of the deterministic Misra–Gries normaliser for
//!    `p ∈ (1, 2]`,
//! 2. the shared-offsets `O(1)`-update framework vs naive per-instance
//!    reservoir units with their own counters,
//! 3. the per-item reservoir coin.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;
use tps_core::framework::{MisraGriesNormalizer, TrulyPerfectGSampler};
use tps_core::sampler_unit::SamplerUnit;
use tps_random::{default_rng, ReservoirSampler};
use tps_sketches::MisraGries;
use tps_streams::generators::zipfian_stream;
use tps_streams::{Lp, StreamSampler};

fn bench_normalizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_normalizer");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(1));
    let mut rng = default_rng(8);
    let stream = zipfian_stream(&mut rng, 4_096, 30_000, 1.1);
    group.throughput(Throughput::Elements(stream.len() as u64));

    group.bench_function("misra_gries_64", |b| {
        b.iter(|| {
            let mut mg = MisraGries::new(64);
            for &x in &stream {
                mg.update(x);
            }
            mg.max_frequency_upper_bound()
        })
    });
    group.finish();
}

fn bench_shared_offsets(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_shared_offsets");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(1));
    let mut rng = default_rng(9);
    let stream = zipfian_stream(&mut rng, 4_096, 30_000, 1.1);
    let instances = 128usize;
    group.throughput(Throughput::Elements(stream.len() as u64));

    group.bench_function("shared_offsets_framework", |b| {
        b.iter(|| {
            let g = Lp::new(2.0);
            let normalizer = MisraGriesNormalizer::new(2.0, 64);
            let mut sampler = TrulyPerfectGSampler::with_instances(g, normalizer, instances, 21);
            sampler.update_all(&stream);
            sampler.tracked_items()
        })
    });
    group.bench_function("naive_per_instance_units", |b| {
        b.iter(|| {
            let mut rng = default_rng(21);
            let mut units = vec![SamplerUnit::new(); instances];
            for &x in &stream {
                for unit in &mut units {
                    unit.update(&mut rng, x);
                }
            }
            units.iter().filter(|u| u.sample().is_some()).count()
        })
    });
    group.finish();
}

fn bench_reservoir_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_reservoir");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(1));
    let mut rng = default_rng(10);
    let stream = zipfian_stream(&mut rng, 4_096, 100_000, 1.0);
    group.throughput(Throughput::Elements(stream.len() as u64));

    group.bench_function("per_item_coin", |b| {
        b.iter(|| {
            let mut rng = default_rng(33);
            let mut reservoir = ReservoirSampler::new(1);
            for &x in &stream {
                reservoir.offer(&mut rng, x);
            }
            reservoir.single().map(|s| s.value)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_normalizers,
    bench_shared_offsets,
    bench_reservoir_variants
);
criterion_main!(benches);
