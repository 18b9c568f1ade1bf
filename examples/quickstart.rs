//! Quickstart: the builder-first parallel front-end, checkpointing, and a
//! truly perfect `L_2` distribution check.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks the public surface end to end: build a sharded
//! sampler with [`ShardedSamplerBuilder`], ingest a skewed stream, read
//! the runtime's flow-control counters, checkpoint mid-stream with
//! [`snapshot_bytes`], restore a replica with [`restore_bytes`] and show
//! the two stay byte-identical as both keep ingesting — then run the
//! turnstile (insert *and* delete) kind through the same sharded
//! front-end via [`ShardedSamplerBuilder::build_turnstile`], and finally
//! draw many samples with fresh single-instance samplers and compare the
//! empirical distribution against the exact `f_i² / F_2` target.

use truly_perfect_samplers::streams::frequency::FrequencyVector;
use truly_perfect_samplers::streams::generators::zipfian_stream;
use truly_perfect_samplers::streams::stats::{expected_sampling_tv, SampleHistogram};
use truly_perfect_samplers::streams::SpaceUsage;
use truly_perfect_samplers::{
    restore_bytes, snapshot_bytes, SampleOutcome, ShardedSampler, ShardedSamplerBuilder,
    SignedUpdate, StreamSampler, StrictTurnstileF0Sampler, TrulyPerfectLpSampler, TurnstileSampler,
};

fn main() {
    let universe = 1_024u64;
    let stream_length = 200_000usize;
    let p = 2.0;
    let seed = 42u64;

    // A Zipf(1.1) stream: a few heavy items and a long tail, the regime in
    // which L2 sampling differs most from plain frequency sampling.
    let mut rng = truly_perfect_samplers::random::default_rng(7);
    let stream = zipfian_stream(&mut rng, universe, stream_length, 1.1);
    let (head, tail) = stream.split_at(stream.len() / 2);

    // --- The parallel front-end, builder-first -------------------------
    let mut sharded = ShardedSamplerBuilder::new(4).seed(seed).build(|shard| {
        TrulyPerfectLpSampler::new(p, universe, 0.05, seed ^ ((shard as u64) << 32))
    });
    sharded.update_batch(head);

    // --- Checkpoint / restore through the facade helpers ---------------
    let checkpoint = snapshot_bytes(&sharded);
    let mut replica: ShardedSampler<TrulyPerfectLpSampler> =
        restore_bytes(&checkpoint).expect("own snapshot restores");
    sharded.update_batch(tail);
    replica.update_batch(tail);
    assert_eq!(
        snapshot_bytes(&sharded),
        snapshot_bytes(&replica),
        "restore-and-continue must be byte-identical to never stopping"
    );

    let stats = sharded.runtime_stats();
    println!("stream length            : {stream_length}");
    println!("shards                   : {}", sharded.shard_count());
    println!("checkpoint size          : {} bytes", checkpoint.len());
    println!(
        "runtime chunks           : {} ({} blocked)",
        stats.chunks, stats.blocked
    );
    match sharded.sample() {
        SampleOutcome::Index(item) => println!("merged L2 sample         : item {item}"),
        outcome => println!("merged L2 sample         : {outcome:?}"),
    }
    println!();

    // --- Turnstile: the same front-end over signed updates -------------
    // Inserts plus deletions flow through `build_turnstile`; the shards
    // share one seed because the turnstile merge law needs identical
    // pre-drawn subsets (the routing, staging and runtime underneath are
    // the same kind-generic machinery the L2 front-end just used).
    let signed: Vec<SignedUpdate> = stream
        .iter()
        .enumerate()
        .flat_map(|(i, &item)| {
            if i % 3 == 0 {
                // A transient occurrence: inserted, later deleted.
                vec![SignedUpdate::insert(item), SignedUpdate::delete(item)]
            } else {
                vec![SignedUpdate::insert(item)]
            }
        })
        .collect();
    let mut turnstile = ShardedSamplerBuilder::new(4)
        .seed(seed)
        .build_turnstile(|_shard| StrictTurnstileF0Sampler::new(universe, seed));
    turnstile.ingest_batch(&signed);
    println!(
        "turnstile updates        : {} (with deletions)",
        signed.len()
    );
    match TurnstileSampler::sample(&mut turnstile) {
        SampleOutcome::Index(item) => println!("merged turnstile sample  : item {item}"),
        outcome => println!("merged turnstile sample  : {outcome:?}"),
    }
    println!();

    // --- Truly perfect means: noise-only deviation from the target -----
    let draws = 2_000u64;
    let truth = FrequencyVector::from_stream(&stream);
    let target = truth.lp_distribution(p);
    let mut histogram = SampleHistogram::new();
    let mut space = 0usize;
    for draw_seed in 0..draws {
        let mut sampler = TrulyPerfectLpSampler::new(p, universe, 0.05, draw_seed);
        sampler.update_all(&stream);
        space = space.max(sampler.space_bytes());
        histogram.record(sampler.sample());
    }

    let tv = histogram.tv_distance(&target);
    let noise = expected_sampling_tv(&target, histogram.successes());
    println!("draws                    : {draws}");
    println!(
        "failures                 : {} ({:.2}%)",
        histogram.fails(),
        100.0 * histogram.fail_rate()
    );
    println!(
        "sampler space            : {:.1} KiB",
        space as f64 / 1024.0
    );
    println!("TV(empirical, exact)     : {tv:.4}");
    println!("expected multinomial TV  : {noise:.4}");
    println!();
    println!(
        "A truly perfect sampler's TV distance is explained by sampling noise alone \
         (compare the last two numbers above)."
    );
}
