//! The in-process reference: `ShardedSampler` (2 hash-routed shards,
//! `ShardedSamplerBuilder` + `make_l2`) fed the job stream in 64Ki
//! batches, pass after pass, under the service workload's query traffic:
//!
//! * a `query(Consistent)` after every 8th batch — the in-process twin of
//!   a query barrier;
//! * the open-loop cached stream at [`CACHED_PER_SECOND`], each request
//!   `query(Cached)` one barrier interval stale at most. The service counts
//!   staleness in barriers, `ShardedSampler` in ingest calls, so one
//!   barrier interval is [`CONSISTENT_EVERY`] epochs here.
//!
//! `query` needs the sampler exclusively, so a cached request that fell
//! due while the calling thread was ingesting a batch or answering a
//! consistent query is issued when that call returns. As on the service,
//! cached latency runs from the due time: it is that wait (reported as
//! lateness) plus the `query` call. Consistent queries are timed over the
//! call alone. No benchmark-side work is timed: answers are dropped after
//! the clock stops. Bypasses wire, transport, store and the query plane.

use std::time::{Duration, Instant};

use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::{ShardedSampler, ShardedSamplerBuilder, ShardingStrategy};
use tps_service::config::job_stream;
use tps_streams::{Item, QueryOptions};

use crate::job::{report_line, shard_sampler, CHUNK, SHARDS, UNIVERSE};
use crate::service::CACHED_PER_SECOND;
use crate::stats::{OpenLoopSample, OpenLoopSchedule, Samples};
use crate::trace::Tracer;

/// A consistent query after every this many batches.
pub const CONSISTENT_EVERY: u64 = 8;
/// Staleness bound of the cached queries: one consistent-query interval.
const CACHED_STALENESS: u64 = CONSISTENT_EVERY;

/// Builds the sharded sampler. `sequential` raises the parallel cutoff
/// above the batch size, so the runtime never starts and every batch is
/// scattered and drained on the calling thread.
pub fn build(seed: u64, sequential: bool) -> ShardedSampler<TrulyPerfectLpSampler> {
    let mut builder = ShardedSamplerBuilder::new(SHARDS)
        .strategy(ShardingStrategy::Hash)
        .seed(seed);
    if sequential {
        builder = builder.parallel_cutoff(CHUNK + 1);
    }
    builder.build(|shard| shard_sampler(seed, shard))
}

/// Generates the stream and builds the sampler, timing both.
pub fn setup(seed: u64, count: usize) -> (Vec<Item>, ShardedSampler<TrulyPerfectLpSampler>, f64) {
    let start = Instant::now();
    let stream = job_stream(UNIVERSE, count, seed);
    let sampler = build(seed, false);
    (stream, sampler, start.elapsed().as_secs_f64())
}

/// `tps-service reference`'s recipe in this process: a fresh sampler,
/// one `ingest_batch` of the whole stream, one `merged()`. Returns the
/// updates per second of that ingest-and-merge and the report line.
pub fn reference(seed: u64, stream: &[Item]) -> (f64, String) {
    let mut sampler = build(seed, false);
    let start = Instant::now();
    sampler.ingest_batch(stream);
    let merged = sampler.merged();
    let rate = stream.len() as f64 / start.elapsed().as_secs_f64();
    (rate, report_line(stream.len() as u64, merged))
}

/// How long [`drive`] goes on.
#[derive(Debug, Clone, Copy)]
pub enum Plan<'a> {
    /// At least `budget`, and until `min_cached` cached queries were
    /// answered.
    Timed { budget: Duration, min_cached: usize },
    /// A recorded call sequence: after batch `i`, `cached_after[i]`
    /// cached queries ([`Drive::cached_after`]).
    Replay(&'a [u64]),
}

/// What one measured call sequence produced.
#[derive(Debug, Default)]
pub struct Drive {
    pub batches: u64,
    pub updates: u64,
    pub consistent_ms: Samples,
    /// Cached latencies, from each request's due time.
    pub cached_ms: Samples,
    /// How long each cached request waited for the ingest thread.
    pub cached_lateness_ms: Samples,
    /// Cached queries issued after each batch.
    pub cached_after: Vec<u64>,
    /// Queries whose cut was not one they may answer with.
    pub wrong: u64,
    pub report: String,
}

/// One `query` call: when it was sent, when it returned, and its cut. The
/// answer is dropped after the clock stops.
fn timed_query(
    t: &mut Tracer,
    sampler: &mut ShardedSampler<TrulyPerfectLpSampler>,
    options: &QueryOptions,
) -> (Instant, Instant, u64) {
    let sent = Instant::now();
    let answer = t.span("sharded.query", |_| sampler.query(options));
    (sent, Instant::now(), answer.cut)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Feeds `stream` batch by batch, pass after pass, with the query traffic
/// described in the module docs, as long as `plan` says; then answers one
/// final consistent query.
pub fn drive(
    sampler: &mut ShardedSampler<TrulyPerfectLpSampler>,
    stream: &[Item],
    plan: Plan,
    t: &mut Tracer,
) -> Drive {
    let start = Instant::now();
    let schedule = OpenLoopSchedule::new(start, CACHED_PER_SECOND);
    let mut issued = 0u64;
    let mut out = Drive::default();
    'passes: loop {
        for batch in stream.chunks(CHUNK) {
            let done = match plan {
                Plan::Timed { budget, min_cached } => {
                    out.batches > 0
                        && start.elapsed() >= budget
                        && out.cached_ms.len() >= min_cached
                }
                Plan::Replay(calls) => out.batches == calls.len() as u64,
            };
            if done {
                break 'passes;
            }
            t.span("sharded.scatter", |_| sampler.ingest_batch(batch));
            out.batches += 1;
            out.updates += batch.len() as u64;
            if out.batches.is_multiple_of(CONSISTENT_EVERY) {
                let (sent, done, cut) = timed_query(t, sampler, &QueryOptions::consistent());
                out.consistent_ms.push(ms(done - sent));
                out.wrong += u64::from(cut != out.updates);
            }
            let calls = match plan {
                Plan::Timed { .. } => {
                    let now = Instant::now();
                    (issued..).take_while(|&i| schedule.due(i) <= now).count() as u64
                }
                Plan::Replay(calls) => calls[out.batches as usize - 1],
            };
            for i in issued..issued + calls {
                let options = QueryOptions::cached(CACHED_STALENESS);
                let (sent, done, cut) = timed_query(t, sampler, &options);
                // A replay has no schedule: its requests are due when sent.
                let due = match plan {
                    Plan::Timed { .. } => schedule.due(i),
                    Plan::Replay(_) => sent,
                };
                let sample = OpenLoopSample { due, sent, done };
                out.cached_ms.push(ms(sample.latency()));
                out.cached_lateness_ms.push(ms(sample.lateness()));
                let stale = out.updates.saturating_sub(cut);
                out.wrong +=
                    u64::from(cut > out.updates || stale > CACHED_STALENESS * CHUNK as u64);
            }
            issued += calls;
            out.cached_after.push(calls);
        }
    }
    t.span("sharded.flush", |_| sampler.flush());
    let last = sampler.query(&QueryOptions::consistent());
    out.report = report_line(out.updates, last.value);
    out
}
