//! Sliding-window network monitoring.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example network_monitor
//! ```
//!
//! The scenario from the paper's introduction: a monitor watches a
//! high-throughput packet stream and, every reporting period, wants a
//! sample of flows drawn proportionally to their recent traffic — where
//! "recent" means the last `W` packets, not the whole history. The example
//! runs a drifting flow population through
//!
//! * a truly perfect sliding-window `L_1` sampler (per-flow packet counts),
//! * a truly perfect sliding-window Huber sampler (robust weighting that
//!   damps mega-flows), and
//! * the truly perfect sliding-window `F_0` sampler (active flow discovery),
//!
//! and shows that expired flows never leak into the reports. A final
//! section scales the monitor up: a 4-shard `ShardedSampler` on the
//! persistent worker-pool runtime ingests a much larger packet stream in
//! batches while the reporting thread pulls traffic-proportional samples
//! mid-stream from consistent-cut queries — each report waits for the
//! workers to apply what was routed before it, then merges clones of the
//! quiesced shards, and ingest resumes.

use tps_core::f0::SlidingWindowF0Sampler;
use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::ShardedSamplerBuilder;
use tps_core::sliding::SlidingWindowGSampler;
use tps_core::QueryOptions;
use tps_random::default_rng;
use tps_streams::frequency::FrequencyVector;
use tps_streams::generators::drifting_stream;
use tps_streams::stats::SampleHistogram;
use tps_streams::update::WindowSpec;
use tps_streams::{Huber, Lp, SampleOutcome, SlidingWindowSampler, StreamSampler};

fn main() {
    let universe = 4_096u64;
    let window = 2_000u64;
    let stream_length = 12_000usize;

    // Flow population drifts every 1500 packets: old flows go quiet, new
    // flows appear, so the active window keeps changing.
    let mut rng = default_rng(42);
    let stream = drifting_stream(&mut rng, universe, stream_length, 1_500, 64, 256);
    let window_truth = FrequencyVector::from_window(&stream, WindowSpec::new(window));

    println!("window size              : {window} packets");
    println!("active flows in window   : {}", window_truth.f0());
    println!(
        "busiest active flow      : {} packets",
        window_truth.l_inf()
    );

    // --- Traffic-proportional sampling (L1) ------------------------------
    let mut l1_hist = SampleHistogram::new();
    for seed in 0..400u64 {
        let mut sampler = SlidingWindowGSampler::new(Lp::new(1.0), window, 0.1, seed);
        for &packet in &stream {
            SlidingWindowSampler::update(&mut sampler, packet);
        }
        l1_hist.record(SlidingWindowSampler::sample(&mut sampler));
    }
    report("traffic-proportional (L1)", &l1_hist, &window_truth);

    // --- Robust sampling (Huber) ------------------------------------------
    let mut huber_hist = SampleHistogram::new();
    for seed in 0..400u64 {
        let mut sampler = SlidingWindowGSampler::new(Huber::new(8.0), window, 0.1, 10_000 + seed);
        for &packet in &stream {
            SlidingWindowSampler::update(&mut sampler, packet);
        }
        huber_hist.record(SlidingWindowSampler::sample(&mut sampler));
    }
    report("robust (Huber, tau = 8)", &huber_hist, &window_truth);

    // --- Active-flow discovery (F0) ----------------------------------------
    let mut f0_sampler = SlidingWindowF0Sampler::new(universe, window, 0.05, 7);
    for &packet in &stream {
        SlidingWindowSampler::update(&mut f0_sampler, packet);
    }
    let mut discovered = std::collections::HashSet::new();
    for _ in 0..200 {
        if let SampleOutcome::Index(flow) = SlidingWindowSampler::sample(&mut f0_sampler) {
            assert!(window_truth.get(flow) > 0, "expired flow {flow} reported");
            discovered.insert(flow);
        }
    }
    println!(
        "F0 sampler discovered {} distinct active flows in 200 draws (window has {}).",
        discovered.len(),
        window_truth.f0()
    );

    // --- Sharded ingest + periodic consistent queries -----------------------
    //
    // The production shape: packets arrive far faster than one core can
    // absorb, so a hash-routed ShardedSampler spreads them over a pool of
    // persistent workers (one long-lived thread per shard, fed by bounded
    // channels). The monitor keeps reporting while ingest runs: each periodic
    // query waits for the workers to apply every packet routed before it,
    // then merges clones of the quiesced shards, so each report answers
    // for exactly the packets seen so far.
    let shards = 4;
    let batch_len = 64 * 1024;
    let batches = 24;
    let report_every = 8;
    let big_universe = 65_536u64;

    let mut sharded = ShardedSamplerBuilder::new(shards)
        .seed(7_777)
        .build(|idx| TrulyPerfectLpSampler::new(1.0, big_universe, 0.1, 1_000 + idx as u64));
    let mut gen_rng = default_rng(4_242);
    let mut truth = FrequencyVector::new();
    println!(
        "\nsharded monitor          : {shards} shards, {} packets in {batches} batches",
        batch_len * batches
    );
    for batch_no in 1..=batches {
        let batch = drifting_stream(&mut gen_rng, big_universe, batch_len, 16_384, 512, 2_048);
        for &packet in &batch {
            truth.insert(packet);
        }
        sharded.update_batch(&batch);
        // The monitor reports every fourth batch through the typed query
        // surface. Every `report_every`-th batch demands a fresh
        // consistent cut (one fold-merge across the shards, republished
        // into the snapshot cache); the reports in between accept the
        // cached merge while it is at most four ingest epochs stale —
        // answered without touching the workers or spending merge coins.
        if batch_no % 4 == 0 {
            let options = if batch_no % report_every == 0 {
                QueryOptions::consistent()
            } else {
                QueryOptions::cached(4)
            };
            let mut view = sharded.query(&options);
            let mode = if view.cached { "cached" } else { "fresh" };
            match view.value.sample() {
                SampleOutcome::Index(flow) => {
                    assert!(truth.get(flow) > 0, "sampled flow {flow} never seen");
                    println!(
                        "  after batch {batch_no:>2} ({mode:>6}): sampled flow {flow} \
                         (epoch {}, {} packets so far)",
                        view.epoch,
                        truth.get(flow)
                    );
                }
                outcome => println!("  after batch {batch_no:>2} ({mode:>6}): {outcome:?}"),
            }
            assert!(
                sharded.runtime_active(),
                "worker pool should stay live across queries"
            );
        }
    }
    sharded.flush();
    let cache = sharded.query_cache_stats();
    assert!(
        cache.hits > 0,
        "the cached reports should have hit the published merge"
    );
    println!(
        "sharded monitor ingested {} packets across {} shards (runtime {}); \
         query cache: {} hits, {} misses.",
        sharded.processed(),
        sharded.shard_count(),
        if sharded.runtime_active() {
            "live"
        } else {
            "idle"
        },
        cache.hits,
        cache.misses
    );
}

fn report(label: &str, histogram: &SampleHistogram, truth: &FrequencyVector) {
    let expired_hits: u64 = histogram
        .empirical_distribution()
        .keys()
        .filter(|&&flow| truth.get(flow) == 0)
        .map(|&flow| histogram.count(flow))
        .sum();
    println!(
        "{label:<28}: {} draws, {:.1}% failed, {} samples of expired flows",
        histogram.total_draws(),
        100.0 * histogram.fail_rate(),
        expired_hits
    );
}
