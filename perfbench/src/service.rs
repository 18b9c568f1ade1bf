//! Drives the real `tps-service` binary. One job = one coordinator
//! process (which spawns its two TCP workers), watched from this process:
//!
//! * set-up runs from the coordinator's launch until it prints
//!   `query-listening <addr>`;
//! * a closed-loop `Consistent` caller runs on a second thread (a
//!   downstream job waiting on an exact cut: next request as soon as the
//!   reply arrives);
//! * the calling thread runs the open-loop `Cached { max_epochs_stale: 1 }`
//!   stream at [`CACHED_PER_SECOND`] (independent dashboard users), timed
//!   from each request's due time, and
//!   between requests samples the processes' peak RSS and watches stdout
//!   for the final report line, which ends the ingest window.
//!
//! Counting rule: a query counts only if it was sent before the final
//! report line. Queries the plane turned away because the job had ended
//! are tallied apart and not counted: its typed `Closed` rejection, and a
//! connection refused, reset or closed without a reply less than
//! [`END_GRACE`] before the report line — the plane's listener refuses or
//! drops dials once it closes, and its handler threads die with the
//! coordinator. Every other error, and every answer whose `processed` is
//! not `min(cut × chunk, count)`, is a failure.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tps_service::client::QueryError;
use tps_service::{QueryClient, QueryOptions};

use crate::job::{JobShape, CHUNK, SHARDS, UNIVERSE};
use crate::procfs;
use crate::stats::{OpenLoopSample, OpenLoopSchedule, Samples};

/// Longest the coordinator may take to start listening.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest one job may ingest.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// How often the monitor samples RSS and polls stdout.
const POLL: Duration = Duration::from_millis(5);
/// Reply deadline for one query.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// How long before the report line a dropped connection still counts as
/// the job ending: the plane's last accept slice (50 ms) plus the
/// coordinator's worker shutdown and final merge.
const END_GRACE: Duration = Duration::from_millis(100);

/// Send rate of the open-loop cached stream.
pub const CACHED_PER_SECOND: f64 = 200.0;

/// How one query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Answered, with the `processed` count its cut implies.
    Ok,
    /// Answered with the wrong `processed` count.
    Wrong,
    /// Refused because the job had ended (not counted).
    EndRefusal,
    /// The connection was refused or dropped: the job ending, if it
    /// happened within [`END_GRACE`] of the report line.
    Dropped,
    /// Any other error.
    Error,
}

fn judge(
    result: Result<tps_service::QuerySnapshot<tps_service::QueryReport>, QueryError>,
    shape: &JobShape,
) -> Verdict {
    let dropped = |e: &io::Error| {
        matches!(
            e.kind(),
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
        )
    };
    match result {
        Ok(snapshot) if snapshot.value.processed == shape.processed_at(snapshot.cut) => Verdict::Ok,
        Ok(_) => Verdict::Wrong,
        Err(QueryError::Closed { .. }) => Verdict::EndRefusal,
        Err(QueryError::Dial { last: e, .. } | QueryError::Io(e)) if dropped(&e) => {
            Verdict::Dropped
        }
        Err(QueryError::Protocol(detail)) if detail.contains("closed the connection") => {
            Verdict::Dropped
        }
        Err(e) => {
            eprintln!("perfbench: query failed: {e}");
            Verdict::Error
        }
    }
}

struct Sent {
    sent: Instant,
    done: Instant,
    latency: Duration,
    lateness: Duration,
    verdict: Verdict,
}

/// Query outcomes of one or more jobs, after the counting rule.
#[derive(Debug, Default, Clone)]
pub struct QueryTally {
    pub consistent_ms: Samples,
    pub cached_ms: Samples,
    pub cached_lateness_ms: Samples,
    pub counted: u64,
    pub ok: u64,
    pub wrong: u64,
    pub errors: u64,
    pub end_refusals: u64,
}

impl QueryTally {
    fn add(&mut self, record: &Sent, cached: bool, report_at: Instant) {
        if record.sent >= report_at {
            return;
        }
        let ms = record.latency.as_secs_f64() * 1e3;
        let verdict = match record.verdict {
            Verdict::Dropped if record.done + END_GRACE >= report_at => Verdict::EndRefusal,
            Verdict::Dropped => {
                eprintln!("perfbench: query connection dropped mid-job");
                Verdict::Error
            }
            verdict => verdict,
        };
        match verdict {
            Verdict::EndRefusal | Verdict::Dropped => {
                self.end_refusals += 1;
                return;
            }
            Verdict::Ok => {
                self.ok += 1;
                if cached {
                    self.cached_ms.push(ms);
                    self.cached_lateness_ms
                        .push(record.lateness.as_secs_f64() * 1e3);
                } else {
                    self.consistent_ms.push(ms);
                }
            }
            Verdict::Wrong => self.wrong += 1,
            Verdict::Error => self.errors += 1,
        }
        self.counted += 1;
    }

    pub fn merge(&mut self, other: &QueryTally) {
        self.consistent_ms.extend(&other.consistent_ms);
        self.cached_ms.extend(&other.cached_ms);
        self.cached_lateness_ms.extend(&other.cached_lateness_ms);
        self.counted += other.counted;
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.errors += other.errors;
        self.end_refusals += other.end_refusals;
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.errors
    }
}

/// The query plane's own counters: its `query-plane: served=…` summary
/// line, plus the distinct epochs of the consistent cuts it served (one
/// per query barrier a client saw).
#[derive(Debug, Default, Clone, Copy)]
pub struct PlaneSummary {
    pub served: u64,
    pub cache_hits: u64,
    pub rejected: u64,
    pub barriers: u64,
}

impl PlaneSummary {
    fn parse(stderr: &str) -> Option<Self> {
        let mut summary = None;
        let mut consistent_epochs = BTreeSet::new();
        for line in stderr.lines() {
            let Some(rest) = line.strip_prefix("query-plane: served") else {
                continue;
            };
            let fields: BTreeMap<&str, &str> = rest
                .split_whitespace()
                .filter_map(|f| f.trim_start_matches('=').split_once('='))
                .collect();
            if let Some(served) = rest.strip_prefix('=') {
                let served = served.split_whitespace().next()?.parse().ok()?;
                let field = |k: &str| fields.get(k).and_then(|v| v.parse().ok());
                summary = Some(PlaneSummary {
                    served,
                    cache_hits: field("cache_hits")?,
                    rejected: field("rejected")?,
                    barriers: 0,
                });
            } else if fields.get("cached") == Some(&"false") {
                consistent_epochs.insert(fields.get("epoch")?.to_string());
            }
        }
        summary.map(|s| PlaneSummary {
            barriers: consistent_epochs.len() as u64,
            ..s
        })
    }
}

/// Everything one job measured.
#[derive(Debug)]
pub struct JobOutcome {
    pub setup_s: f64,
    pub ingest_s: f64,
    pub peak_rss_bytes: u64,
    pub report: String,
    pub queries: QueryTally,
    pub plane: PlaneSummary,
}

/// Appends-only file reader returning complete new lines per poll.
struct LineTail {
    file: File,
    pending: String,
}

impl LineTail {
    fn open(path: &Path) -> io::Result<Self> {
        Ok(Self {
            file: File::open(path)?,
            pending: String::new(),
        })
    }

    fn poll(&mut self) -> io::Result<Vec<String>> {
        let mut fresh = String::new();
        self.file.read_to_string(&mut fresh)?;
        self.pending.push_str(&fresh);
        let mut lines = Vec::new();
        while let Some(end) = self.pending.find('\n') {
            lines.push(self.pending[..end].to_string());
            self.pending.drain(..=end);
        }
        Ok(lines)
    }
}

/// The coordinator and its workers, killed and reaped on drop unless the
/// job ended cleanly.
struct Processes {
    coordinator: Child,
    workers: Vec<u32>,
}

impl Processes {
    fn sample_rss(&self, peaks: &mut BTreeMap<u32, u64>) {
        for pid in std::iter::once(self.coordinator.id()).chain(self.workers.iter().copied()) {
            if let Some(bytes) = procfs::peak_rss_bytes(pid) {
                let peak = peaks.entry(pid).or_default();
                *peak = (*peak).max(bytes);
            }
        }
    }

    /// Waits for the coordinator (killing it after `grace`) and for every
    /// worker; returns whether the coordinator exited successfully.
    fn finish(&mut self, grace: Duration) -> io::Result<bool> {
        let deadline = Instant::now() + grace;
        let status = loop {
            if let Some(status) = self.coordinator.try_wait()? {
                break Some(status);
            }
            if Instant::now() >= deadline {
                self.coordinator.kill()?;
                self.coordinator.wait()?;
                break None;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        self.stop_workers(grace)?;
        Ok(status.is_some_and(|s| s.success()))
    }

    fn stop_workers(&mut self, grace: Duration) -> io::Result<()> {
        let deadline = Instant::now() + grace;
        while self.workers.iter().any(|&pid| procfs::alive(pid)) {
            if Instant::now() >= deadline {
                for &pid in &self.workers {
                    if procfs::alive(pid) {
                        Command::new("kill")
                            .args(["-KILL", &pid.to_string()])
                            .status()?;
                    }
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.workers.clear();
        Ok(())
    }
}

impl Drop for Processes {
    fn drop(&mut self) {
        if !self.workers.is_empty() || matches!(self.coordinator.try_wait(), Ok(None)) {
            let _ = self.coordinator.kill();
            let _ = self.coordinator.wait();
            let _ = self.stop_workers(Duration::from_secs(5));
        }
    }
}

fn coordinator_command(bin: &Path, shape: &JobShape, dir: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.arg("coordinator")
        .args(["--workers", &SHARDS.to_string()])
        .args(["--sampler", "l2"])
        .args(["--universe", &UNIVERSE.to_string()])
        .args(["--seed", &shape.seed.to_string()])
        .args(["--count", &shape.count.to_string()])
        .args(["--chunk", &CHUNK.to_string()])
        .args(["--checkpoint-every", &shape.checkpoint_every.to_string()])
        .arg("--checkpoint-dir")
        .arg(dir)
        .args(["--transport", "tcp"])
        .args(["--query-listen", "127.0.0.1:0"])
        .arg("--worker-exe")
        .arg(bin);
    cmd
}

/// `tps-service reference` for the job: the in-process report every
/// service run must reproduce.
pub fn reference(bin: &Path, shape: &JobShape) -> io::Result<String> {
    let out = Command::new(bin)
        .arg("reference")
        .args(["--workers", &SHARDS.to_string()])
        .args(["--sampler", "l2"])
        .args(["--universe", &UNIVERSE.to_string()])
        .args(["--seed", &shape.seed.to_string()])
        .args(["--count", &shape.count.to_string()])
        .stdin(Stdio::null())
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "reference exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Ok(stdout.lines().last().unwrap_or_default().to_string())
}

fn closed_loop(addr: &str, stop: &AtomicBool, shape: &JobShape) -> Vec<Sent> {
    let client = QueryClient::new(addr)
        .dial_attempts(1)
        .read_timeout(READ_TIMEOUT);
    let mut records = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let sent = Instant::now();
        let verdict = judge(client.query(&QueryOptions::consistent()), shape);
        let done = Instant::now();
        records.push(Sent {
            sent,
            done,
            latency: done - sent,
            lateness: Duration::ZERO,
            verdict,
        });
        if matches!(verdict, Verdict::EndRefusal | Verdict::Dropped) {
            // The plane is gone; don't spin on refused dials.
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    records
}

/// Runs one job with checkpoint dir `dir` (fresh, see
/// [`crate::job::fresh_dir`]; removed afterwards), logging the
/// coordinator's output under `logs`.
pub fn run_job(bin: &Path, shape: &JobShape, dir: &Path, logs: &Path) -> io::Result<JobOutcome> {
    let result = drive(bin, shape, dir, logs);
    let removed = crate::job::remove_dir(dir);
    let outcome = result?;
    removed?;
    Ok(outcome)
}

fn drive(bin: &Path, shape: &JobShape, dir: &Path, logs: &Path) -> io::Result<JobOutcome> {
    fs::create_dir_all(logs)?;
    let stdout_path = logs.join("coordinator.out");
    let stderr_path = logs.join("coordinator.err");
    let launched = Instant::now();
    let coordinator = coordinator_command(bin, shape, dir)
        .stdin(Stdio::null())
        .stdout(File::create(&stdout_path)?)
        .stderr(File::create(&stderr_path)?)
        .spawn()?;
    let mut procs = Processes {
        coordinator,
        workers: Vec::new(),
    };
    let mut stdout = LineTail::open(&stdout_path)?;

    let addr = 'setup: loop {
        for line in stdout.poll()? {
            if let Some(addr) = line.strip_prefix("query-listening ") {
                break 'setup addr.to_string();
            }
        }
        if procs.coordinator.try_wait()?.is_some() || launched.elapsed() > SETUP_TIMEOUT {
            return Err(io::Error::other(format!(
                "coordinator never listened; see {}",
                stderr_path.display()
            )));
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    let setup_end = Instant::now();
    procs.workers = procfs::children_of(procs.coordinator.id());
    if procs.workers.len() != SHARDS {
        return Err(io::Error::other(format!(
            "expected {SHARDS} worker processes, found {:?}",
            procs.workers
        )));
    }

    let stop = AtomicBool::new(false);
    let mut peaks = BTreeMap::new();
    let (ended, cached, consistent) = std::thread::scope(|scope| {
        let consistent = scope.spawn(|| closed_loop(&addr, &stop, shape));
        let client = QueryClient::new(addr.as_str())
            .dial_attempts(1)
            .read_timeout(READ_TIMEOUT);
        let schedule = OpenLoopSchedule::new(setup_end, CACHED_PER_SECOND);
        let mut cached = Vec::new();
        let mut next_poll = setup_end;
        let ended = loop {
            let now = Instant::now();
            if now >= next_poll {
                procs.sample_rss(&mut peaks);
                // Checked before reading stdout: a coordinator that exited
                // has already written everything it will write.
                let exited = !matches!(procs.coordinator.try_wait(), Ok(None));
                match stdout.poll() {
                    Ok(lines) => {
                        if let Some(report) =
                            lines.into_iter().find(|l| l.starts_with("processed="))
                        {
                            break Ok((report, Instant::now()));
                        }
                    }
                    Err(e) => break Err(e),
                }
                if exited {
                    break Err(io::Error::other(format!(
                        "coordinator ended without a report; see {}",
                        stderr_path.display()
                    )));
                }
                if setup_end.elapsed() > JOB_TIMEOUT {
                    break Err(io::Error::other("job timed out"));
                }
                next_poll = now + POLL;
                continue;
            }
            let due = schedule.due(cached.len() as u64);
            if now >= due {
                let sent = Instant::now();
                let verdict = judge(client.query(&QueryOptions::cached(1)), shape);
                let sample = OpenLoopSample {
                    due,
                    sent,
                    done: Instant::now(),
                };
                cached.push(Sent {
                    sent,
                    done: sample.done,
                    latency: sample.latency(),
                    lateness: sample.lateness(),
                    verdict,
                });
                continue;
            }
            std::thread::sleep(due.min(next_poll) - now);
        };
        stop.store(true, Ordering::Release);
        let consistent = consistent
            .join()
            .expect("consistent client thread panicked");
        (ended, cached, consistent)
    });
    let (report, report_at) = ended?;
    if !procs.finish(Duration::from_secs(30))? {
        return Err(io::Error::other(format!(
            "coordinator exited with an error; see {}",
            stderr_path.display()
        )));
    }

    let mut queries = QueryTally::default();
    for record in &consistent {
        queries.add(record, false, report_at);
    }
    for record in &cached {
        queries.add(record, true, report_at);
    }
    let stderr = fs::read_to_string(&stderr_path)?;
    let plane = PlaneSummary::parse(&stderr)
        .ok_or_else(|| io::Error::other("no query-plane summary on the coordinator's stderr"))?;
    Ok(JobOutcome {
        setup_s: (setup_end - launched).as_secs_f64(),
        ingest_s: (report_at - setup_end).as_secs_f64(),
        peak_rss_bytes: peaks.values().sum(),
        report,
        queries,
        plane,
    })
}

/// The logs directory for job `index` of a run.
pub fn job_logs(run_dir: &Path, index: usize) -> PathBuf {
    run_dir.join(format!("job-{index}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_summary_parses_the_counters_and_consistent_epochs() {
        let stderr = "\
query-plane: served epoch=1 cut=3 cached=false latency_us=900
query-plane: served epoch=1 cut=3 cached=true latency_us=40
query-plane: served epoch=2 cut=5 cached=false latency_us=800
query-plane: served epoch=2 cut=5 cached=false latency_us=810
query-plane: served=4 cache_hits=1 cache_misses=3 rejected=0 latency_mean_us=600 latency_max_us=900
";
        let s = PlaneSummary::parse(stderr).unwrap();
        assert_eq!(
            (s.served, s.cache_hits, s.rejected, s.barriers),
            (4, 1, 0, 2)
        );
        assert!(PlaneSummary::parse("nothing here\n").is_none());
    }

    #[test]
    fn only_queries_sent_before_the_report_count() {
        let t0 = Instant::now();
        let report_at = t0 + END_GRACE + Duration::from_millis(10);
        let sent = |ms: u64, verdict| Sent {
            sent: t0 + Duration::from_millis(ms),
            done: t0 + Duration::from_millis(ms + 2),
            latency: Duration::from_millis(2),
            lateness: Duration::from_millis(1),
            verdict,
        };
        let end = (report_at - t0).as_millis() as u64;
        let mut tally = QueryTally::default();
        for (ms, verdict, cached) in [
            (1, Verdict::Ok, true),
            (2, Verdict::Ok, false),
            (3, Verdict::Wrong, false),
            (4, Verdict::Error, true),
            // Dropped long before the job ended: a failure.
            (4, Verdict::Dropped, false),
            (5, Verdict::Ok, true),
            // Turned away as the job ended: not counted.
            (end - 30, Verdict::Dropped, false),
            (end - 5, Verdict::EndRefusal, true),
            // Sent after the report line: not counted, whatever happened.
            (end, Verdict::Error, true),
            (end + 2, Verdict::EndRefusal, false),
        ] {
            tally.add(&sent(ms, verdict), cached, report_at);
        }
        assert_eq!((tally.counted, tally.ok, tally.failed()), (6, 3, 3));
        assert_eq!(tally.end_refusals, 2);
        assert_eq!((tally.cached_ms.len(), tally.consistent_ms.len()), (2, 1));
        assert_eq!(tally.cached_lateness_ms.median(), Some(1.0));
    }
}
