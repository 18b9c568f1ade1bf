//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload service|inproc --seed N --seconds S --trace 0|1
//!           --service-bin PATH --run-dir DIR
//! ```
//!
//! Every workload runs the same job: `job_stream(universe 4096, Zipf 1.2,
//! seed)` through the L2 sampler on 2 hash-routed shards in 64Ki-update
//! chunks (see `job.rs`).
//!
//! * `service` — the real `tps-service` coordinator and its two TCP
//!   workers, with a closed-loop consistent caller and a 200/s open-loop
//!   cached stream beside the ingest: reads beside writes.
//! * `inproc` — the in-process `ShardedSampler` over the same stream, the
//!   same-host reference (`inproc.rs`).
//!
//! With `--trace 0` a run measures for `--seconds` (`service`: seconds of
//! ingest windows, set-ups not counted; `inproc`: seconds of the measured
//! call sequence), longer if a reported tail has fewer than twenty samples
//! beyond it (ten are the floor for reporting it at all), and prints the
//! end-to-end metrics. `--trace 1` does the same for every workload: it
//! runs one service job, replays the job through each layer's public
//! functions under spans (`replay.rs`), times the in-process layers and
//! prints the per-layer metrics. Each metric is printed
//! as a `# name value unit (n=samples)` line, and the last line of stdout
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod inproc;
mod job;
mod procfs;
mod replay;
mod service;
mod stats;
mod trace;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tps_service::config::job_stream;

use crate::inproc::Plan;
use crate::job::{fresh_dir, remove_dir, JobShape, DURABLE_CADENCE, UNIVERSE};
use crate::service::QueryTally;
use crate::stats::{Samples, Tail, P50, P90, P99};
use crate::trace::{totals_by_name, Tracer};

/// Updates per job (and per in-process pass): 16Mi.
const COUNT: usize = 1 << 24;
/// Set-ups timed per run, at least: `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// In-process set-ups per run.
const INPROC_SETUPS: usize = 5;
/// Samples a run gathers beyond each reported tail: twice the reporting
/// floor, so the tails are steady from run to run.
const BEYOND_TAIL_TARGET: usize = 2 * stats::MIN_BEYOND_TAIL;
/// A service run gives up extending itself for unresolved tails here.
const RUN_CAP: Duration = Duration::from_secs(120);
/// Dials in the accept-latency probe.
const ACCEPT_DIALS: usize = 200;
/// Timed in-process references per traced run: `reference.updates_per_s`
/// is their median.
const REFERENCE_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Service,
    Inproc,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "service" => Some(Workload::Service),
            "inproc" => Some(Workload::Inproc),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Service => "service",
            Workload::Inproc => "inproc",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    service_bin: PathBuf,
    run_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let number = |key: &str| -> Result<u64, String> {
        value(key)?
            .parse()
            .map_err(|_| format!("{key}: not a whole number"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other:?}: expected 0 or 1")),
        },
        service_bin: PathBuf::from(value("--service-bin")?),
        run_dir: PathBuf::from(value("--run-dir")?),
    })
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// A run's verdict and numbers.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Median and one named tail of `samples`, as `<prefix>_p50_ms` and
    /// `<prefix>_<tail>_ms`.
    fn put_timing(&mut self, prefix: &str, samples: &Samples, tail: Tail) {
        let n = samples.len();
        for t in [P50, tail] {
            let value = samples.percentile(t).unwrap_or(f64::NAN);
            self.put(&format!("{prefix}_{}_ms", t.name), value, "ms", n);
        }
    }

    fn print(&self) -> io::Result<()> {
        let mut entries = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(io::Error::other(format!("{} was not measured", m.name)));
            }
            println!("# {} {} {} (n={})", m.name, m.value, m.unit, m.samples);
            entries.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            entries.join(", ")
        );
        Ok(())
    }
}

fn median(values: &[f64]) -> f64 {
    let mut samples = Samples::default();
    for &v in values {
        samples.push(v);
    }
    samples.median().unwrap_or(f64::NAN)
}

/// The checkpoint directories must sit on the checkout's own filesystem:
/// nothing is written outside it, and the type is logged with the run.
fn guard_filesystem(run_dir: &Path) -> io::Result<()> {
    let (fs_type, mount) = job::filesystem_of(run_dir)?;
    let (root_type, root_mount) = job::filesystem_of(Path::new("."))?;
    if (fs_type.as_str(), &mount) != (root_type.as_str(), &root_mount) {
        return Err(io::Error::other(format!(
            "run dir is on {fs_type} at {}, the checkout on {root_type} at {}",
            mount.display(),
            root_mount.display()
        )));
    }
    eprintln!(
        "perfbench: checkpoint dirs on {fs_type} (mounted at {})",
        mount.display()
    );
    Ok(())
}

/// The service workload: back-to-back jobs until their ingest windows (the
/// time queries run against a live job) add up to `--seconds`, at least
/// [`MIN_SETUPS`] jobs ran and every reported tail has
/// [`BEYOND_TAIL_TARGET`] samples beyond it. At 200 cached queries/s ten
/// seconds of windows are the 2000 samples a steady p99 needs, so the
/// budget and the tail rule end a run together; each job's set-up and
/// teardown come on top of its window.
fn service_run(args: &Args) -> io::Result<Outcome> {
    guard_filesystem(&args.run_dir)?;
    let shape = JobShape::without_checkpoints(args.seed, COUNT);
    let expected = service::reference(&args.service_bin, &shape)?;
    let budget = args.seconds as f64;
    let start = Instant::now();
    let (mut setups, mut rates, mut rss, mut windows) = (vec![], vec![], vec![], 0.0);
    let mut tally = QueryTally::default();
    let mut failed_jobs = 0u64;
    let mut index = 0;
    let tails_resolved =
        |t: &QueryTally| P90.resolved(t.consistent_ms.len()) && P99.resolved(t.cached_ms.len());
    let tails_steady = |t: &QueryTally| {
        t.consistent_ms.len() >= P90.samples_for(BEYOND_TAIL_TARGET)
            && t.cached_ms.len() >= P99.samples_for(BEYOND_TAIL_TARGET)
    };
    while setups.len() < MIN_SETUPS || windows < budget || !tails_steady(&tally) {
        if start.elapsed() > RUN_CAP || failed_jobs > 2 {
            break;
        }
        let dir = fresh_dir(&args.run_dir, &format!("checkpoints-{index}"))?;
        let logs = service::job_logs(&args.run_dir, index);
        index += 1;
        match service::run_job(&args.service_bin, &shape, &dir, &logs) {
            Ok(job) if job.report == expected => {
                setups.push(job.setup_s);
                rates.push(COUNT as f64 / job.ingest_s);
                rss.push(job.peak_rss_bytes as f64 / (1 << 20) as f64);
                windows += job.ingest_s;
                tally.merge(&job.queries);
            }
            Ok(job) => {
                eprintln!(
                    "perfbench: job reported {:?}, reference {expected:?}",
                    job.report
                );
                failed_jobs += 1;
            }
            Err(e) => {
                eprintln!("perfbench: job failed: {e}");
                failed_jobs += 1;
            }
        }
    }
    if setups.is_empty() {
        return Err(io::Error::other("no job completed"));
    }
    eprintln!(
        "perfbench: {} jobs, {} queries counted, {} refused after the job ended, cached-stream \
         lateness p50 {:.3} ms",
        setups.len(),
        tally.counted,
        tally.end_refusals,
        tally.cached_lateness_ms.median().unwrap_or(0.0)
    );
    let mut out = Outcome {
        correct: failed_jobs == 0 && tally.failed() == 0 && tails_resolved(&tally),
        attempted: setups.len() as u64 + failed_jobs + tally.counted,
        failed: failed_jobs + tally.failed(),
        metrics: Vec::new(),
    };
    out.put("setup_s", median(&setups), "s", setups.len());
    out.put("ingest_updates_per_s", median(&rates), "1/s", rates.len());
    out.put("peak_rss_mb", median(&rss), "MiB", rss.len());
    out.put_timing("consistent_query", &tally.consistent_ms, P90);
    out.put_timing("cached_query", &tally.cached_ms, P99);
    out.put(
        "queries_per_s",
        tally.counted as f64 / windows,
        "1/s",
        tally.counted as usize,
    );
    out.put(
        "query_success_ratio",
        tally.ok as f64 / tally.counted.max(1) as f64,
        "ratio",
        tally.counted as usize,
    );
    Ok(out)
}

/// The in-process workload: several timed set-ups, one measured call
/// sequence, then the same sequence on the sequential path, whose final
/// answer must be byte-identical.
fn inproc_run(args: &Args) -> io::Result<Outcome> {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..INPROC_SETUPS {
        drop(built.take()); // free the previous stream before generating the next
        let (stream, sampler, setup_s) = inproc::setup(args.seed, COUNT);
        setups.push(setup_s);
        built = Some((stream, sampler));
    }
    let (stream, mut sampler) = built.expect("at least one set-up");
    let mut off = Tracer::new(false);
    let plan = Plan::Timed {
        budget: Duration::from_secs(args.seconds),
        min_cached: P99.samples_for(BEYOND_TAIL_TARGET),
    };
    let start = Instant::now();
    let run = inproc::drive(&mut sampler, &stream, plan, &mut off);
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = procfs::peak_rss_bytes(std::process::id()).unwrap_or(0);
    drop(sampler);

    let mut sequential = inproc::build(args.seed, true);
    let check = inproc::drive(
        &mut sequential,
        &stream,
        Plan::Replay(&run.cached_after),
        &mut off,
    );
    eprintln!(
        "perfbench: {} batches, cached-stream lateness p50 {:.3} ms",
        run.batches,
        run.cached_lateness_ms.median().unwrap_or(0.0)
    );
    let matches = check.report == run.report && !sequential.runtime_active();
    if !matches {
        eprintln!(
            "perfbench: runtime path answered {:?}, sequential path {:?}",
            run.report, check.report
        );
    }
    let queries = (run.consistent_ms.len() + run.cached_ms.len()) as u64;
    let tails = P90.resolved(run.consistent_ms.len()) && P99.resolved(run.cached_ms.len());
    let mut out = Outcome {
        correct: matches && run.wrong == 0 && tails,
        attempted: 1 + queries,
        failed: u64::from(!matches) + run.wrong,
        metrics: Vec::new(),
    };
    out.put("setup_s", median(&setups), "s", setups.len());
    out.put(
        "ingest_updates_per_s",
        run.updates as f64 / wall,
        "1/s",
        run.batches as usize,
    );
    out.put("peak_rss_mb", peak_rss as f64 / (1 << 20) as f64, "MiB", 1);
    out.put_timing("consistent_query", &run.consistent_ms, P90);
    out.put_timing("cached_query", &run.cached_ms, P99);
    out.put(
        "queries_per_s",
        queries as f64 / wall,
        "1/s",
        queries as usize,
    );
    out.put(
        "query_success_ratio",
        (queries - run.wrong) as f64 / queries.max(1) as f64,
        "ratio",
        queries as usize,
    );
    Ok(out)
}

/// The traced run, the same for every workload, so each per-layer metric
/// has one meaning: one service job (its report must equal the
/// reference's), the per-layer replay under spans (its report must equal
/// the service's), the same replay untraced (the span overhead), the
/// accept-latency probe, the single-sampler baseline, the in-process
/// reference and one traced in-process pass.
fn traced_run(args: &Args) -> io::Result<Outcome> {
    guard_filesystem(&args.run_dir)?;
    let seed = args.seed;
    let shape = JobShape::without_checkpoints(seed, COUNT);
    let bin = &args.service_bin;
    let expected = service::reference(bin, &shape)?;
    let dir = fresh_dir(&args.run_dir, "checkpoints")?;
    let job = service::run_job(bin, &shape, &dir, &service::job_logs(&args.run_dir, 0))?;
    let stream = job_stream(UNIVERSE, COUNT, seed);

    let durable = JobShape {
        checkpoint_every: DURABLE_CADENCE,
        ..shape
    };
    let mut tracer = Tracer::new(true);
    let mut counts = replay::Counts::default();
    let spec = durable
        .spec(&dir, bin)
        .map_err(|e| io::Error::other(format!("replay spec: {e}")))?;
    let start = Instant::now();
    let replayed = tracer.span("replay", |t| {
        replay::replay(t, &durable, &spec, &stream, &mut counts)
    });
    let traced_s = start.elapsed().as_secs_f64();
    remove_dir(&dir)?;
    let replayed = replayed?;

    let plain_dir = fresh_dir(&args.run_dir, "checkpoints-untraced")?;
    let plain_spec = durable
        .spec(&plain_dir, bin)
        .map_err(|e| io::Error::other(format!("replay spec: {e}")))?;
    let start = Instant::now();
    let plain = replay::replay(
        &mut Tracer::new(false),
        &durable,
        &plain_spec,
        &stream,
        &mut replay::Counts::default(),
    );
    let untraced_s = start.elapsed().as_secs_f64();
    remove_dir(&plain_dir)?;
    let plain = plain?;

    let accept_ms = replay::accept_latency(ACCEPT_DIALS, service::CACHED_PER_SECOND)?;
    let single = replay::single_engine(&mut tracer, seed, &stream);
    let references: Vec<(f64, String)> = (0..REFERENCE_REPEATS)
        .map(|_| inproc::reference(seed, &stream))
        .collect();
    let reference_rate = median(&references.iter().map(|(rate, _)| *rate).collect::<Vec<_>>());
    let mut sampler = inproc::build(seed, false);
    // One pass with the consistent queries and no cached stream, so the
    // call sequence does not depend on the clock.
    let no_cached = vec![0; COUNT.div_ceil(job::CHUNK)];
    let pass = tracer.span("sharded", |t| {
        inproc::drive(&mut sampler, &stream, Plan::Replay(&no_cached), t)
    });
    let runtime = sampler.runtime_stats();

    let checks = [
        ("service", &job.report, &expected),
        ("in-process reference", &references[0].1, &expected),
        ("traced replay", &replayed, &job.report),
        ("untraced replay", &plain, &job.report),
    ];
    let mut failed = job.queries.failed() + pass.wrong;
    for (what, got, want) in checks {
        if got != want {
            eprintln!("perfbench: {what} answered {got:?}, expected {want:?}");
            failed += 1;
        }
    }

    let trace_dir = args
        .run_dir
        .parent()
        .unwrap_or(&args.run_dir)
        .join("traces");
    std::fs::create_dir_all(&trace_dir)?;
    let trace_path = trace_dir.join(format!("{}-seed{seed}.json", args.workload.name()));
    tracer.write_json(&trace_path)?;
    eprintln!("perfbench: spans written to {}", trace_path.display());

    let spans = tracer.spans();
    let totals = totals_by_name(spans);
    let mut out = Outcome {
        correct: failed == 0,
        attempted: 4 + job.queries.counted + pass.batches,
        failed,
        metrics: Vec::new(),
    };
    // Self time summed over every call into one layer function.
    for (metric, span) in [
        ("coordinator.scatter_s", "coordinator.scatter"),
        ("wire.encode_s", "wire.encode"),
        ("wire.decode_s", "wire.decode"),
        ("transport.send_s", "transport.send"),
        ("engine.ingest_s", "engine.ingest"),
        ("codec.snapshot_s", "codec.snapshot"),
        ("codec.restore_s", "codec.restore"),
        ("delta.shard_encode_s", "delta.shard_encode"),
        ("delta.manifest_encode_s", "delta.manifest_encode"),
        ("manifest.encode_s", "manifest.encode"),
        ("store.append_s", "store.append"),
        ("store.compact_s", "store.compact"),
        ("sharded.scatter_s", "sharded.scatter"),
        ("sharded.flush_s", "sharded.flush"),
    ] {
        let t = totals.get(span).copied().unwrap_or_default();
        out.put(metric, t.self_s, "s", t.calls);
    }
    // The fold-merge counts the restores it performs.
    let fold = totals.get("merge.fold").copied().unwrap_or_default();
    out.put("merge.fold_s", fold.inclusive_s, "s", fold.calls);

    let mut appends = Samples::default();
    let mut per_shard = [0.0f64; job::SHARDS];
    for span in spans {
        match span.name {
            "store.append" => appends.push(span.duration_ns() as f64 * 1e-6),
            "engine.ingest" => {
                per_shard[span.shard.expect("engine spans carry a shard")] +=
                    span.duration_ns() as f64 * 1e-9
            }
            _ => {}
        }
    }
    let sampled = [
        (
            "store.append_p99_ms",
            appends.percentile(P99),
            appends.len(),
        ),
        ("transport.accept_ms", accept_ms.median(), accept_ms.len()),
        (
            "query.generator_lateness_ms",
            job.queries.cached_lateness_ms.median(),
            job.queries.cached_lateness_ms.len(),
        ),
    ];
    for (metric, value, n) in sampled {
        out.put(metric, value.unwrap_or(f64::NAN), "ms", n);
    }

    let max_shard = per_shard.iter().copied().fold(0.0, f64::max);
    let mean_shard = per_shard.iter().sum::<f64>() / job::SHARDS as f64;
    let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
    let service_rate = COUNT as f64 / job.ingest_s;
    let c = &counts;
    for (metric, value, unit) in [
        (
            "coordinator.replay_peak_bytes",
            c.replay_peak_bytes as f64,
            "bytes",
        ),
        (
            "wire.bytes_per_update",
            per(c.ingest_frame_bytes, c.updates),
            "bytes",
        ),
        ("engine.max_shard_ingest_s", max_shard, "s"),
        ("engine.shard_skew", max_shard / mean_shard, "ratio"),
        ("engine.single_updates_per_s", single, "1/s"),
        (
            "codec.snapshot_bytes",
            per(c.snapshot_bytes, c.snapshots),
            "bytes",
        ),
        (
            "delta.shard_frame_bytes",
            per(c.shard_frame_bytes, c.shard_frames),
            "bytes",
        ),
        (
            "delta.shard_full_frames",
            c.shard_full_frames as f64,
            "count",
        ),
        (
            "delta.manifest_frame_bytes",
            per(c.manifest_frame_bytes, c.manifests),
            "bytes",
        ),
        (
            "manifest.bytes",
            per(c.manifest_bytes, c.manifests),
            "bytes",
        ),
        ("store.fsyncs", c.fsyncs as f64, "count"),
        ("store.bytes_synced", c.bytes_synced as f64, "bytes"),
        (
            "query.cache_hit_ratio",
            per(job.plane.cache_hits, job.plane.served),
            "ratio",
        ),
        ("query.barriers", job.plane.barriers as f64, "count"),
        ("query.rejected", job.plane.rejected as f64, "count"),
        (
            "sharded.scatter_updates_per_s",
            pass.updates as f64 / totals.get("sharded.scatter").map_or(f64::NAN, |t| t.self_s),
            "1/s",
        ),
        ("runtime.chunks", runtime.chunks as f64, "count"),
        ("runtime.blocked", runtime.blocked as f64, "count"),
        ("runtime.spilled", runtime.spilled as f64, "count"),
        (
            "service_vs_reference",
            service_rate / reference_rate,
            "ratio",
        ),
        ("replay.traced_wall_s", traced_s, "s"),
        ("replay.untraced_wall_s", untraced_s, "s"),
    ] {
        out.put(metric, value, unit, 1);
    }
    out.put(
        "reference.updates_per_s",
        reference_rate,
        "1/s",
        REFERENCE_REPEATS,
    );
    Ok(out)
}

fn run(args: &Args) -> io::Result<Outcome> {
    match (args.trace, args.workload) {
        (true, _) => traced_run(args),
        (false, Workload::Inproc) => inproc_run(args),
        (false, Workload::Service) => service_run(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.run_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args);
    let cleaned = remove_dir(&args.run_dir);
    match result.and_then(|out| cleaned.and_then(|()| out.print())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
