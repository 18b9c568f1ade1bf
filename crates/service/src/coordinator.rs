//! The coordinator: attaches one worker per shard over the job's
//! transport (spawned pipe children, self-spawned loopback listeners, or
//! externally-managed TCP endpoints), routes the stream with the exact
//! in-process routing function, drives checkpoint and query barriers,
//! recovers killed workers from their chains, persists its *own* state to
//! a manifest chain so a killed coordinator resumes, serves consistent-cut
//! queries to clients while ingest runs, and answers the final query by
//! restore-and-merge — byte-identical to a single-process
//! [`ShardedSampler`] over the same stream.
//!
//! ## Replay by stream position
//!
//! The coordinator already holds the whole stream, so a worker's replay
//! record keeps no data: one `(tag, chunk index)` entry per chunk that
//! sent the worker a non-empty part, tagged with the epoch of the last
//! barrier *sent* before it. A chunk tagged `t` is covered by any
//! checkpoint with epoch `> t`:
//!
//! * on a checkpoint **ack** at epoch `E` (the frame is on disk), entries
//!   tagged `< E` are dropped;
//! * on a worker **restart** announcing recovered epoch `e`, the chunks
//!   tagged `≥ e` are re-routed from the stream and the worker's parts
//!   re-sent in order (tagged `< e` are inside the recovered state and
//!   are dropped).
//!
//! The restored state is exactly the checkpoint-`e` cut, so re-ingesting
//! exactly the uncovered parts reproduces the uninterrupted shard state
//! byte for byte — regardless of how much post-checkpoint work the dead
//! process had already absorbed (that work died with it).
//!
//! ## Flow control
//!
//! A link ships in pieces of at most [`RUNTIME_CHUNK`] updates, and the
//! ingest loop routes straight into per-worker piece buffers, shipping
//! each as it fills, so a hot worker gets its next piece while the rest
//! of the chunk is still being routed. Every piece is followed by a
//! [`BarrierKind::Sync`] carrying the link's sequence number, and the
//! worker acks it at once. Before each piece the link reads that worker's
//! acks until at most [`RING_CAPACITY`] earlier pieces are unacked: the
//! in-process runtime's lead rule, in the same constants, so a link holds
//! at most `3 × 8Ki` unapplied updates. A `Sync` consumes no job epoch
//! and writes nothing to disk.
//!
//! Pending consistent queries are served at chunk boundaries, after the
//! chunk's last piece and before the next chunk's first, so a query's
//! processed count is exactly `min(cut × chunk, count)`. Its barrier goes
//! out without draining any link first: it queues behind at most that
//! lead. Acks arrive in send order, so the link's `ack` first reads past
//! the pending `Sync` acks.
//!
//! Collection stays synchronous: every barrier's acks (query and
//! checkpoint) are read before the next piece ships. So whenever the
//! coordinator blocks on a send, no snapshot-bearing ack can be unread,
//! and at most `RING_CAPACITY + 1` small `Sync` acks are outstanding per
//! link. Neither side can then wedge on a full pipe or socket buffer: the
//! worker's only writes while the coordinator sends are those few acks.
//!
//! ## Coordinator durability
//!
//! The same argument is applied to the coordinator itself: before every
//! checkpoint barrier it appends a [`Manifest`] — spec, barrier epoch,
//! chunks routed, per-shard endpoints and (untrimmed) replay parts,
//! re-routed from the stream at persist time — to its own chain, fsynced
//! *before* any worker is told to checkpoint (see `manifest.rs` for the
//! case analysis). `resume_job` reconstructs the job from that chain
//! alone: locate each replay part in the regenerated stream (a part that
//! does not match fails the resume), re-handshake the workers, re-send
//! the parts their recovered epochs don't cover, and re-route the
//! deterministic stream from the recorded chunk cut.

use std::io::{self, BufRead, BufReader};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use tps_core::runtime::{barrier_all, collect_acks, send_barrier, ShardLink, RING_CAPACITY};
use tps_core::sharded::{
    fold_merge, hash_route, ShardedSampler, ShardedSamplerBuilder, MERGE_SEED_SALT, RUNTIME_CHUNK,
};
use tps_random::Xoshiro256;
use tps_streams::codec::delta::IncrementalCheckpointer;
use tps_streams::codec::{checksum, Restore, Snapshot};
use tps_streams::wire::transport::{tcp_connect, Connection, FramedConnection, TcpConnection};
use tps_streams::wire::{check_hello, BarrierKind, IngestPayload, WireError, WireMessage};
use tps_streams::{MergeableSampler, SampleOutcome, StreamUpdate, UpdateSampler};

use crate::config::{
    job_signed_stream, job_stream, make_f0, make_g, make_l2, make_turnstile, FaultPlan, JobSpec,
    QueryPlan, SamplerKind, TransportKind,
};
use crate::manifest::{peek_spec, Manifest, ShardState};
use crate::query::{PublishedCut, QueryPlane};
use crate::store::CheckpointStore;

fn wire_to_io(e: WireError) -> io::Error {
    match e {
        WireError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The answer of a job's final consistent-cut query, printed as one line
/// (`processed=… merged_fnv=… sample=…`). Two runs whose lines are equal
/// produced byte-identical merged snapshots — this is the currency of the
/// smoke test's recovery and reference comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReport {
    /// Stream items routed (the logical stream length, not counting
    /// recovery re-sends; for a mid-ingest query, the length of the
    /// routed prefix at the query's consistent cut).
    pub processed: u64,
    /// FNV-1a 64 over the merged sampler's sealed snapshot bytes.
    pub merged_fnv: u64,
    /// The merged sampler's sample outcome, drawn after the snapshot.
    pub sample: String,
}

impl std::fmt::Display for QueryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "processed={} merged_fnv={:016x} sample={}",
            self.processed, self.merged_fnv, self.sample
        )
    }
}

impl QueryReport {
    /// The report of a merged sampler answering for `processed` routed
    /// items: the checksum of its sealed snapshot, then one draw.
    pub fn of<S: Snapshot + UpdateSampler<U>, U: StreamUpdate>(
        processed: u64,
        mut merged: S,
    ) -> Self {
        Self {
            processed,
            merged_fnv: checksum(&merged.snapshot()),
            sample: match merged.draw() {
                SampleOutcome::Index(i) => format!("index:{i}"),
                SampleOutcome::Empty => "empty".to_string(),
                SampleOutcome::Fail => "fail".to_string(),
            },
        }
    }

    /// Parses a line printed by [`QueryReport`]'s `Display` impl.
    pub fn parse(line: &str) -> Option<Self> {
        let mut processed = None;
        let mut merged_fnv = None;
        let mut sample = None;
        for field in line.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            match key {
                "processed" => processed = value.parse().ok(),
                "merged_fnv" => merged_fnv = u64::from_str_radix(value, 16).ok(),
                "sample" => sample = Some(value.to_string()),
                _ => return None,
            }
        }
        Some(Self {
            processed: processed?,
            merged_fnv: merged_fnv?,
            sample: sample?,
        })
    }
}

/// One attached worker plus its replay record and `Sync` counters; it
/// ships pieces of `U`.
struct WorkerHandle<U> {
    shard: usize,
    conn: Box<dyn Connection>,
    /// The worker process, when this coordinator spawned it (pipe workers
    /// and self-spawned loopback listeners). Externally-managed TCP
    /// workers — including listeners inherited from a dead coordinator —
    /// have no child handle.
    child: Option<Child>,
    /// The worker's TCP endpoint, recorded in the manifest so a resumed
    /// coordinator can find the still-running listener.
    endpoint: Option<String>,
    /// `(tag, chunk index)` of every chunk that sent this worker a
    /// non-empty part since its last acked checkpoint, tagged with the
    /// epoch of the last barrier sent before it.
    replay: Vec<(u64, u64)>,
    /// The last checkpoint epoch this worker acked.
    acked_epoch: u64,
    /// `Sync` barriers sent on this link; each carries its count as its
    /// sequence number.
    syncs_sent: u64,
    /// `Sync` barriers this worker has acked.
    syncs_acked: u64,
    payload: PhantomData<fn(Vec<U>)>,
}

impl<U: IngestPayload> WorkerHandle<U> {
    fn new(shard: usize, conn: Box<dyn Connection>) -> Self {
        Self {
            shard,
            conn,
            child: None,
            endpoint: None,
            replay: Vec::new(),
            acked_epoch: 0,
            syncs_sent: 0,
            syncs_acked: 0,
            payload: PhantomData,
        }
    }

    /// Reads `Sync` acks, in send order, until at most `pending` remain
    /// unacknowledged.
    fn settle_syncs(&mut self, pending: u64) -> io::Result<()> {
        while self.syncs_sent - self.syncs_acked > pending {
            let seq = self.syncs_acked + 1;
            match self.recv()? {
                WireMessage::BarrierAck {
                    shard,
                    epoch,
                    snapshot: None,
                } if shard == self.shard as u64 && epoch == seq => self.syncs_acked = seq,
                other => {
                    return Err(invalid(format!(
                        "worker {}: expected the ack of sync {seq}, got {other:?}",
                        self.shard
                    )))
                }
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<WireMessage> {
        self.conn.recv().map_err(wire_to_io)?.ok_or_else(|| {
            invalid(format!(
                "worker {} closed its connection mid-conversation",
                self.shard
            ))
        })
    }

    /// Reads and verifies the worker's `Hello` (protocol version and the
    /// capabilities `U` needs — see [`check_hello`]), returning the epoch
    /// it recovered to (`0` = fresh).
    fn handshake(&mut self) -> io::Result<u64> {
        let hello = self.recv()?;
        let (said, resume_epoch) = check_hello(&hello, U::REQUIRED_CAPS)
            .map_err(|e| invalid(format!("worker {}: {e}", self.shard)))?;
        if said != self.shard as u64 {
            return Err(invalid(format!(
                "worker {} announced shard {said}",
                self.shard
            )));
        }
        Ok(resume_epoch)
    }

    /// Sends one piece and its `Sync` once at most [`RING_CAPACITY`]
    /// earlier pieces are unacked. The piece is moved into the message and
    /// back out, never cloned; it comes back empty, keeping its capacity.
    fn send_piece(&mut self, piece: Vec<U>) -> io::Result<Vec<U>> {
        self.settle_syncs(RING_CAPACITY as u64)?;
        let msg = U::into_ingest(piece);
        self.conn.send(&msg)?;
        let mut piece =
            U::from_ingest(msg).map_err(|_| invalid("ingest message lost its chunk".into()))?;
        piece.clear();
        self.syncs_sent += 1;
        self.conn.send(&WireMessage::Barrier {
            epoch: self.syncs_sent,
            kind: BarrierKind::Sync,
        })?;
        Ok(piece)
    }

    /// Ships `part` as (the next piece of) chunk `index`'s part, recording
    /// the chunk in the replay record once, tagged `tag`; `part` comes
    /// back empty.
    fn ship_part(&mut self, part: &mut Vec<U>, tag: u64, index: u64) -> io::Result<()> {
        *part = self.ship(std::mem::take(part))?;
        if self.replay.last() != Some(&(tag, index)) {
            self.replay.push((tag, index));
        }
        Ok(())
    }
}

/// The wire [`ShardLink`]: a worker process behind its connection, under
/// the runtime's lead rule (see the module docs). The caller records what
/// it shipped in the replay record.
impl<U: IngestPayload> ShardLink<U> for WorkerHandle<U> {
    /// Ships `part` as pieces of at most [`RUNTIME_CHUNK`] updates, each
    /// followed by its `Sync`. A part that fits one piece travels as is;
    /// a longer one (a replayed chunk) is copied out piece by piece.
    fn ship(&mut self, mut part: Vec<U>) -> io::Result<Vec<U>> {
        if part.len() <= RUNTIME_CHUNK {
            return self.send_piece(part);
        }
        let mut piece = Vec::with_capacity(RUNTIME_CHUNK);
        for items in part.chunks(RUNTIME_CHUNK) {
            piece.extend_from_slice(items);
            piece = self.send_piece(piece)?;
        }
        part.clear();
        Ok(part)
    }

    fn barrier(&mut self, epoch: u64, kind: BarrierKind) -> io::Result<()> {
        self.conn.send(&WireMessage::Barrier { epoch, kind })
    }

    /// Reads the next barrier ack. Every pending `Sync` went out before
    /// the barrier, so its ack comes first.
    fn ack(&mut self) -> io::Result<(u64, Option<Vec<u8>>)> {
        self.settle_syncs(0)?;
        match self.recv()? {
            WireMessage::BarrierAck {
                shard,
                epoch,
                snapshot,
            } if shard == self.shard as u64 => Ok((epoch, snapshot)),
            other => Err(invalid(format!(
                "worker {}: expected a barrier ack, got {other:?}",
                self.shard
            ))),
        }
    }
}

fn worker_command(spec: &JobSpec, exe: &Path, shard: usize) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--sampler")
        .arg(spec.sampler.as_str())
        .arg("--universe")
        .arg(spec.universe.to_string())
        .arg("--seed")
        .arg(spec.seed.to_string())
        .arg("--checkpoint-dir")
        .arg(&spec.checkpoint_dir);
    cmd
}

/// Spawns a pipe-transport worker and completes its handshake.
fn spawn_pipe_worker<U: IngestPayload>(
    spec: &JobSpec,
    exe: &Path,
    shard: usize,
) -> io::Result<(WorkerHandle<U>, u64)> {
    let mut child = worker_command(spec, exe, shard)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let input = child.stdin.take().expect("piped stdin");
    let output = child.stdout.take().expect("piped stdout");
    let mut handle = WorkerHandle::new(shard, Box::new(FramedConnection::new(output, input)));
    handle.child = Some(child);
    let resume_epoch = handle.handshake()?;
    Ok((handle, resume_epoch))
}

/// Spawns a `--listen` worker on a loopback ephemeral port, reads the
/// `listening <addr>` announcement from its stdout, dials it, and
/// completes the handshake.
fn spawn_listen_worker<U: IngestPayload>(
    spec: &JobSpec,
    exe: &Path,
    shard: usize,
) -> io::Result<(WorkerHandle<U>, u64)> {
    let mut child = worker_command(spec, exe, shard)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    let endpoint = line
        .trim()
        .strip_prefix("listening ")
        .ok_or_else(|| invalid(format!("worker {shard} announced {line:?}")))?
        .to_string();
    let conn = connect_retry(&endpoint, 250)?;
    let mut handle = WorkerHandle::new(shard, Box::new(conn));
    handle.child = Some(child);
    handle.endpoint = Some(endpoint);
    let resume_epoch = handle.handshake()?;
    Ok((handle, resume_epoch))
}

/// Dials an externally-managed (or inherited) listen worker.
fn connect_worker<U: IngestPayload>(
    endpoint: &str,
    shard: usize,
    attempts: u32,
) -> io::Result<(WorkerHandle<U>, u64)> {
    let conn = connect_retry(endpoint, attempts)?;
    let mut handle = WorkerHandle::new(shard, Box::new(conn));
    handle.endpoint = Some(endpoint.to_string());
    let resume_epoch = handle.handshake()?;
    Ok((handle, resume_epoch))
}

fn connect_retry(endpoint: &str, attempts: u32) -> io::Result<TcpConnection> {
    let mut last = None;
    for _ in 0..attempts {
        match tcp_connect(endpoint) {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    Err(last.unwrap_or_else(|| invalid(format!("cannot reach worker at {endpoint}"))))
}

/// Attaches the worker for `shard` on a *fresh* job.
fn attach_worker<U: IngestPayload>(
    spec: &JobSpec,
    exe: &Path,
    shard: usize,
) -> io::Result<(WorkerHandle<U>, u64)> {
    match &spec.transport {
        TransportKind::Pipe => spawn_pipe_worker(spec, exe, shard),
        TransportKind::Tcp { endpoints } if endpoints.is_empty() => {
            spawn_listen_worker(spec, exe, shard)
        }
        TransportKind::Tcp { endpoints } => connect_worker(&endpoints[shard], shard, 250),
    }
}

/// Re-attaches the worker for `shard` on a *resumed* job: pipe workers
/// died with the old coordinator and are respawned; listen workers are
/// still running and are re-dialed at their recorded endpoint (with a
/// respawn fallback for self-spawned loopback workers that died too).
fn reattach_worker<U: IngestPayload>(
    spec: &JobSpec,
    exe: &Path,
    shard: usize,
    recorded: Option<&String>,
) -> io::Result<(WorkerHandle<U>, u64)> {
    match &spec.transport {
        TransportKind::Pipe => spawn_pipe_worker(spec, exe, shard),
        TransportKind::Tcp { endpoints } => {
            let self_spawned = endpoints.is_empty();
            if let Some(endpoint) = recorded {
                match connect_worker(endpoint, shard, 25) {
                    Ok(attached) => Ok(attached),
                    Err(e) if self_spawned => {
                        eprintln!(
                            "coordinator: worker {shard} gone from {endpoint} ({e}); respawning"
                        );
                        spawn_listen_worker(spec, exe, shard)
                    }
                    Err(e) => Err(e),
                }
            } else if self_spawned {
                spawn_listen_worker(spec, exe, shard)
            } else {
                connect_worker(&endpoints[shard], shard, 250)
            }
        }
    }
}

/// Shard `shard`'s part of stream chunk `index`, routed into `part`
/// (cleared first) exactly as the ingest loop routed it.
fn route_part<U: StreamUpdate>(
    stream: &[U],
    spec: &JobSpec,
    index: u64,
    shard: usize,
    part: &mut Vec<U>,
) {
    let chunk = stream
        .chunks(spec.chunk)
        .nth(index as usize)
        .expect("replay records only chunks of the stream");
    part.clear();
    part.extend(
        chunk
            .iter()
            .filter(|update| hash_route(update.route_key(), spec.workers) == shard),
    );
}

/// Routes stream chunk `index` straight into the per-worker piece
/// buffers, shipping each piece as it fills and every remainder at the
/// end, so the whole chunk is on the links by the next chunk boundary.
/// Each worker's replay record gets the chunk once, tagged `tag`.
fn route_chunk<U: IngestPayload>(
    workers: &mut [WorkerHandle<U>],
    pieces: &mut [Vec<U>],
    chunk: &[U],
    tag: u64,
    index: u64,
) -> io::Result<()> {
    for &update in chunk {
        let shard = hash_route(update.route_key(), workers.len());
        let piece = &mut pieces[shard];
        piece.push(update);
        if piece.len() == RUNTIME_CHUNK {
            workers[shard].ship_part(piece, tag, index)?;
        }
    }
    for (worker, piece) in workers.iter_mut().zip(pieces) {
        if !piece.is_empty() {
            worker.ship_part(piece, tag, index)?;
        }
    }
    Ok(())
}

/// Re-sends `worker` the recorded parts its recovered epoch does not
/// cover (tagged `≥ resume_epoch`), re-routed from the stream, and
/// records them afresh. Earlier entries are inside the recovered state.
fn replay_into<U: IngestPayload>(
    worker: &mut WorkerHandle<U>,
    spec: &JobSpec,
    stream: &[U],
    replay: Vec<(u64, u64)>,
    resume_epoch: u64,
) -> io::Result<()> {
    worker.acked_epoch = resume_epoch;
    let mut part = Vec::new();
    for (tag, index) in replay {
        if tag >= resume_epoch {
            route_part(stream, spec, index, worker.shard, &mut part);
            part = worker.ship(part)?;
            worker.replay.push((tag, index));
        }
    }
    Ok(())
}

/// Kills the worker outright (SIGKILL — no drain, simulating a crash) and
/// brings up a replacement: the fresh process recovers from its on-disk
/// chain, and the coordinator re-sends the recorded parts the recovered
/// checkpoint does not cover.
fn restart_worker<U: IngestPayload>(
    spec: &JobSpec,
    exe: &Path,
    stream: &[U],
    handle: &mut WorkerHandle<U>,
) -> io::Result<()> {
    let Some(child) = handle.child.as_mut() else {
        return Err(invalid(format!(
            "cannot kill worker {}: externally managed (no child process)",
            handle.shard
        )));
    };
    child.kill()?;
    child.wait()?;
    let (mut fresh, resume_epoch) = match &spec.transport {
        TransportKind::Pipe => spawn_pipe_worker(spec, exe, handle.shard)?,
        TransportKind::Tcp { .. } => spawn_listen_worker(spec, exe, handle.shard)?,
    };
    let replay = std::mem::take(&mut handle.replay);
    replay_into(&mut fresh, spec, stream, replay, resume_epoch)?;
    // Swap the replacement into the slot; the dead process's handles drop.
    std::mem::swap(handle, &mut fresh);
    Ok(())
}

/// Restores the per-shard snapshots and folds them with merge coins from
/// `seed ^ MERGE_SEED_SALT` — the exact recipe of an in-process sharded
/// sampler's first merged query.
fn fold_cut<S, U>(snapshots: &[Vec<u8>], seed: u64, processed: u64) -> io::Result<QueryReport>
where
    S: MergeableSampler + UpdateSampler<U> + Snapshot + Restore,
    U: StreamUpdate,
{
    let shards = snapshots
        .iter()
        .enumerate()
        .map(|(index, bytes)| {
            S::restore(bytes)
                .map_err(|e| invalid(format!("shard {index} snapshot does not restore: {e}")))
        })
        .collect::<io::Result<Vec<S>>>()?;
    let mut rng = Xoshiro256::seed_from_u64(seed ^ MERGE_SEED_SALT);
    let merged = fold_merge(shards, &mut rng)?;
    Ok(QueryReport::of::<S, U>(processed, merged))
}

pub(crate) fn merge_report(
    kind: SamplerKind,
    snapshots: &[Vec<u8>],
    seed: u64,
    processed: u64,
) -> io::Result<QueryReport> {
    use crate::config::HuberSampler;
    use tps_core::f0::TrulyPerfectF0Sampler;
    use tps_core::lp::TrulyPerfectLpSampler;
    use tps_core::turnstile::StrictTurnstileF0Sampler;
    use tps_streams::{Item, SignedUpdate};
    match kind {
        SamplerKind::L2 => fold_cut::<TrulyPerfectLpSampler, Item>(snapshots, seed, processed),
        SamplerKind::F0 => fold_cut::<TrulyPerfectF0Sampler, Item>(snapshots, seed, processed),
        SamplerKind::G => fold_cut::<HuberSampler, Item>(snapshots, seed, processed),
        SamplerKind::Turnstile => {
            fold_cut::<StrictTurnstileF0Sampler, SignedUpdate>(snapshots, seed, processed)
        }
    }
}

/// The coordinator's own durable chain: manifest snapshots checkpointed
/// through the same delta machinery the workers use, with the manifest
/// sequence number as the chain's epoch counter (distinct from job
/// epochs — the chain cares about "which manifest is newest", not about
/// barrier numbering).
struct Durability {
    store: CheckpointStore,
    writer: IncrementalCheckpointer,
    seq: u64,
}

impl Durability {
    fn persist<U: IngestPayload>(&mut self, manifest: &Manifest<U>) -> io::Result<()> {
        self.seq += 1;
        let frame = self.writer.checkpoint_bytes(manifest.encode(), self.seq);
        self.store.append_frame(frame.bytes())?;
        if !frame.is_delta() {
            self.store.compact()?;
        }
        Ok(())
    }
}

/// Appends the manifest for the cut `(epoch, chunks_routed)`. Each
/// worker's replay parts are materialised here, re-routed from the
/// stream, so the manifest's bytes are those of an owned replay buffer.
fn persist_manifest<U: IngestPayload>(
    durability: &mut Durability,
    spec: &JobSpec,
    stream: &[U],
    epoch: u64,
    chunks_routed: u64,
    workers: &[WorkerHandle<U>],
) -> io::Result<()> {
    let manifest = Manifest {
        spec: spec.clone(),
        epoch,
        chunks_routed,
        shards: workers
            .iter()
            .map(|worker| ShardState {
                acked_epoch: worker.acked_epoch,
                endpoint: worker.endpoint.clone(),
                replay: worker
                    .replay
                    .iter()
                    .map(|&(tag, index)| {
                        let mut part = Vec::new();
                        route_part(stream, spec, index, worker.shard, &mut part);
                        (tag, part)
                    })
                    .collect(),
            })
            .collect(),
    };
    durability.persist(&manifest)
}

/// Finds each replay part of `state` (shard `shard`'s, in a manifest cut
/// at `chunks_routed`) in the job stream, returning its `(tag, chunk
/// index)` record. The parts are the shard's last non-empty parts before
/// the cut, so the walk goes back from the cut over this shard's
/// non-empty parts. A part that differs from the stream's fails with
/// [`io::ErrorKind::InvalidData`]: the manifest belongs to another stream.
fn locate_replay<U: IngestPayload + PartialEq>(
    stream: &[U],
    spec: &JobSpec,
    shard: usize,
    chunks_routed: u64,
    state: &ShardState<U>,
) -> io::Result<Vec<(u64, u64)>> {
    let mut located = Vec::with_capacity(state.replay.len());
    let mut index = chunks_routed;
    let mut part = Vec::new();
    for (tag, items) in state.replay.iter().rev() {
        loop {
            index = index.checked_sub(1).ok_or_else(|| {
                invalid(format!(
                    "shard {shard}: the manifest records more replay parts than the \
                     job stream has before chunk {chunks_routed}"
                ))
            })?;
            route_part(stream, spec, index, shard, &mut part);
            if !part.is_empty() {
                break;
            }
        }
        if part != *items {
            return Err(invalid(format!(
                "shard {shard}: the manifest's replay part for chunk {index} does not \
                 match the job stream"
            )));
        }
        located.push((*tag, index));
    }
    located.reverse();
    Ok(located)
}

/// The routed stream-prefix length at a chunk cut (the final chunk may
/// be short, so the product is clamped to the actual stream length).
fn routed_prefix(stream_len: usize, chunks_routed: u64, chunk: usize) -> u64 {
    (chunks_routed * chunk as u64).min(stream_len as u64)
}

/// Serves the consistent-cut demands waiting in the query plane's channel
/// with one query barrier at the cut `chunks_routed`, published to the
/// snapshot cache. The barrier never touches a client socket — replies
/// happen in the handlers' own threads.
fn serve_queries<U: IngestPayload>(
    plane: &QueryPlane,
    query: &QueryPlan,
    workers: &mut [WorkerHandle<U>],
    epoch: &mut u64,
    chunks_routed: u64,
    processed: u64,
) -> io::Result<()> {
    let pending = match query.await_after_chunks {
        // Deterministic test hook: block at exactly this cut until a
        // consistent query lands, however slow the client is to dial in.
        Some(cut) if chunks_routed == cut => plane.wait_for_request()?,
        Some(cut) if chunks_routed < cut => Vec::new(),
        _ => plane.take_requests(),
    };
    if !pending.is_empty() {
        *epoch += 1;
        let snapshots = barrier_all(workers, *epoch, BarrierKind::Query)?;
        let published = plane.publish(PublishedCut {
            epoch: *epoch,
            chunks_routed,
            processed,
            snapshots,
        });
        for request in pending {
            request.fulfil(&published);
        }
    }
    Ok(())
}

/// The kind-generic job body: attach workers, route the stream,
/// checkpoint (manifest-before-barrier), inject faults, serve mid-ingest
/// queries, run the final query barrier, shut down. Returns the final
/// consistent-cut snapshots in shard order.
fn drive_job<U: IngestPayload + PartialEq>(
    spec: &JobSpec,
    stream: &[U],
    fault: &FaultPlan,
    query: &QueryPlan,
    resume: Option<Manifest<U>>,
) -> io::Result<Vec<Vec<u8>>> {
    // A resumed job's replay is checked against the stream before any
    // worker is attached.
    let shard_states = match &resume {
        None => None,
        Some(manifest) => {
            if manifest.shards.len() != spec.workers {
                return Err(invalid(format!(
                    "manifest records {} shards for a {}-worker job",
                    manifest.shards.len(),
                    spec.workers
                )));
            }
            if manifest.chunks_routed > stream.len().div_ceil(spec.chunk) as u64 {
                return Err(invalid(format!(
                    "manifest cut at chunk {} lies past the end of the job stream",
                    manifest.chunks_routed
                )));
            }
            let located = manifest
                .shards
                .iter()
                .enumerate()
                .map(|(shard, state)| {
                    let replay = locate_replay(stream, spec, shard, manifest.chunks_routed, state)?;
                    Ok((state.endpoint.clone(), replay))
                })
                .collect::<io::Result<Vec<_>>>()?;
            Some(located)
        }
    };
    let exe = match &spec.worker_exe {
        Some(path) => path.clone(),
        None => std::env::current_exe()?,
    };
    std::fs::create_dir_all(&spec.checkpoint_dir)?;

    let store = CheckpointStore::for_coordinator(&spec.checkpoint_dir);
    let (mut durability, start_epoch, start_chunks) = match &resume {
        None => {
            if store.recover()?.is_some() {
                return Err(invalid(format!(
                    "coordinator chain {} already exists — resume the job or clear the directory",
                    store.path().display()
                )));
            }
            (
                Durability {
                    store,
                    writer: IncrementalCheckpointer::new(),
                    seq: 0,
                },
                0,
                0,
            )
        }
        Some(manifest) => {
            let chain = store
                .recover()?
                .ok_or_else(|| invalid("no coordinator chain to resume from".into()))?;
            let seq = chain.epoch;
            (
                Durability {
                    store,
                    writer: IncrementalCheckpointer::resume(
                        chain.epoch,
                        chain.snapshot,
                        chain.deltas_since_base,
                    ),
                    seq,
                },
                manifest.epoch,
                manifest.chunks_routed,
            )
        }
    };

    let mut workers: Vec<WorkerHandle<U>> = Vec::with_capacity(spec.workers);
    match shard_states {
        None => {
            for shard in 0..spec.workers {
                let (handle, resume_epoch) = attach_worker(spec, &exe, shard)?;
                if resume_epoch != 0 {
                    return Err(invalid(format!(
                        "worker {shard} recovered epoch {resume_epoch} on a fresh job — \
                         stale checkpoint directory?"
                    )));
                }
                workers.push(handle);
            }
        }
        Some(states) => {
            for (shard, (endpoint, replay)) in states.into_iter().enumerate() {
                let (mut handle, resume_epoch) =
                    reattach_worker(spec, &exe, shard, endpoint.as_ref())?;
                // Re-send every part the recovered checkpoint does not
                // cover, exactly like a worker restart.
                replay_into(&mut handle, spec, stream, replay, resume_epoch)?;
                workers.push(handle);
            }
        }
    }

    // The job is durable from the first moment it could need resuming: a
    // manifest at the zero cut covers death before the first checkpoint.
    if resume.is_none() {
        persist_manifest(&mut durability, spec, stream, 0, 0, &workers)?;
    }

    let mut epoch = start_epoch; // last barrier epoch sent
    let mut chunks_routed = start_chunks;

    // The non-stalling query plane: a dedicated accept thread plus
    // detached handler threads serve clients from the published-cut
    // slot, so a wedged client can never hold up a barrier (`query.rs`).
    // One query barrier right after attach gives the slot its first cut
    // before the plane is announced.
    let plane = match &query.listen {
        Some(addr) => {
            epoch += 1;
            let snapshots = barrier_all(&mut workers, epoch, BarrierKind::Query)?;
            let attach = PublishedCut {
                epoch,
                chunks_routed,
                processed: routed_prefix(stream.len(), chunks_routed, spec.chunk),
                snapshots,
            };
            Some(QueryPlane::start(addr, spec.sampler, spec.seed, attach)?)
        }
        None => None,
    };

    let mut kill_pending = fault.kill;
    // One piece buffer per shard for the whole job, sized for a whole
    // piece so routing never regrows it; `ship` hands each one back.
    let mut pieces: Vec<Vec<U>> = (0..spec.workers)
        .map(|_| Vec::with_capacity(RUNTIME_CHUNK.min(spec.chunk)))
        .collect();
    for (index, chunk) in stream.chunks(spec.chunk).enumerate() {
        if (index as u64) < start_chunks {
            continue; // routed (and manifest-covered) before the resume cut
        }
        // Queries are served at the chunk boundary, before any piece of
        // this chunk ships; the barrier queues behind at most each link's
        // lead, whose acks `ack` reads first.
        if let Some(plane) = &plane {
            serve_queries(
                plane,
                query,
                &mut workers,
                &mut epoch,
                chunks_routed,
                routed_prefix(stream.len(), chunks_routed, spec.chunk),
            )?;
        }
        route_chunk(&mut workers, &mut pieces, chunk, epoch, index as u64)?;
        chunks_routed += 1;

        if let Some(kill) = kill_pending {
            if chunks_routed >= kill.after_chunks {
                // `FaultPlan::validate` vetted the shard in `run_job`.
                restart_worker(spec, &exe, stream, &mut workers[kill.shard])?;
                kill_pending = None;
            }
        }
        if let Some(die) = fault.die {
            if !die.mid_barrier && chunks_routed >= die.after_chunks {
                // Simulated coordinator SIGKILL: no drain, no cleanup, no
                // manifest write — whatever is durable is all that's left.
                std::process::abort();
            }
        }

        if chunks_routed.is_multiple_of(spec.checkpoint_every) {
            epoch += 1;
            // Durability order: the manifest recording this barrier's cut
            // is on disk before any worker is told to checkpoint.
            persist_manifest(
                &mut durability,
                spec,
                stream,
                epoch,
                chunks_routed,
                &workers,
            )?;
            // With a live query plane, checkpoint barriers *publish*: the
            // same barrier round that makes the cut durable also hands
            // its snapshots to the snapshot cache.
            let kind = if plane.is_some() {
                BarrierKind::CheckpointPublish
            } else {
                BarrierKind::Checkpoint
            };
            send_barrier(&mut workers, epoch, kind)?;
            if let Some(die) = fault.die {
                if die.mid_barrier && chunks_routed >= die.after_chunks {
                    // The widest crash window: barriers in flight, zero
                    // acks collected.
                    std::process::abort();
                }
            }
            let snapshots = collect_acks(&mut workers, epoch, kind)?;
            for worker in workers.iter_mut() {
                worker.replay.retain(|&(tag, _)| tag >= epoch);
                worker.acked_epoch = epoch;
            }
            if let Some(plane) = &plane {
                plane.publish(PublishedCut {
                    epoch,
                    chunks_routed,
                    processed: routed_prefix(stream.len(), chunks_routed, spec.chunk),
                    snapshots,
                });
            }
        }
    }

    if let Some(plane) = &plane {
        serve_queries(
            plane,
            query,
            &mut workers,
            &mut epoch,
            chunks_routed,
            routed_prefix(stream.len(), chunks_routed, spec.chunk),
        )?;
    }
    epoch += 1;
    let snapshots = barrier_all(&mut workers, epoch, BarrierKind::Query)?;
    if let Some(plane) = plane {
        // Publish the final cut and answer any last consistent-cut
        // demands with it; then tear the plane down. Handler threads are
        // detached, so however wedged a client is, the job still ends —
        // the plane's drop rejects anything that arrives too late.
        let published = plane.publish(PublishedCut {
            epoch,
            chunks_routed,
            processed: stream.len() as u64,
            snapshots: snapshots.clone(),
        });
        for request in plane.take_requests() {
            request.fulfil(&published);
        }
        plane.finish();
    }
    for worker in workers.iter_mut() {
        worker.conn.send(&WireMessage::Shutdown)?;
    }
    for worker in workers.iter_mut() {
        if let Some(child) = worker.child.as_mut() {
            child.wait()?;
        }
    }
    Ok(snapshots)
}

/// Runs a job from scratch: attach workers, stream, checkpoint (with the
/// coordinator's own manifest chain), inject the fault plan, serve the
/// query plan, merge, shut down.
pub fn run_job(spec: &JobSpec, fault: &FaultPlan, query: &QueryPlan) -> io::Result<QueryReport> {
    spec.validate().map_err(invalid)?;
    fault.validate(spec).map_err(invalid)?;
    let (snapshots, processed) = if spec.sampler.is_turnstile() {
        let stream = job_signed_stream(spec.universe, spec.count, spec.seed);
        (
            drive_job(spec, &stream, fault, query, None)?,
            stream.len() as u64,
        )
    } else {
        let stream = job_stream(spec.universe, spec.count, spec.seed);
        (
            drive_job(spec, &stream, fault, query, None)?,
            stream.len() as u64,
        )
    };
    merge_report(spec.sampler, &snapshots, spec.seed, processed)
}

/// Resumes a job from the coordinator chain in `checkpoint_dir`: the
/// manifest *is* the config snapshot, so nothing else is needed. The
/// recorded spec's `worker_exe` can be overridden (tests relocate
/// binaries). The resumed run never re-injects faults — fault plans are
/// per-invocation, and the invocation that planned them is dead.
pub fn resume_job(
    checkpoint_dir: &Path,
    worker_exe: Option<PathBuf>,
    query: &QueryPlan,
) -> io::Result<QueryReport> {
    let store = CheckpointStore::for_coordinator(checkpoint_dir);
    let chain = store.recover()?.ok_or_else(|| {
        invalid(format!(
            "no coordinator chain at {} to resume from",
            store.path().display()
        ))
    })?;
    let mut spec = peek_spec(&chain.snapshot)
        .map_err(|e| invalid(format!("manifest does not decode: {e}")))?;
    if let Some(exe) = worker_exe {
        spec.worker_exe = Some(exe);
    }
    // Chains move with their directory; trust the caller's location over
    // the recorded absolute path.
    spec.checkpoint_dir = checkpoint_dir.to_path_buf();

    fn resumed<U: IngestPayload + PartialEq>(
        spec: &JobSpec,
        stream: &[U],
        chain_snapshot: &[u8],
        query: &QueryPlan,
    ) -> io::Result<Vec<Vec<u8>>> {
        let mut manifest = Manifest::<U>::decode(chain_snapshot)
            .map_err(|e| invalid(format!("manifest does not decode: {e}")))?;
        manifest.spec = spec.clone();
        drive_job(spec, stream, &FaultPlan::default(), query, Some(manifest))
    }

    let (snapshots, processed) = if spec.sampler.is_turnstile() {
        let stream = job_signed_stream(spec.universe, spec.count, spec.seed);
        (
            resumed(&spec, &stream, &chain.snapshot, query)?,
            stream.len() as u64,
        )
    } else {
        let stream = job_stream(spec.universe, spec.count, spec.seed);
        (
            resumed(&spec, &stream, &chain.snapshot, query)?,
            stream.len() as u64,
        )
    };
    merge_report(spec.sampler, &snapshots, spec.seed, processed)
}

/// The single-process reference: an in-process sharded sampler over the
/// identical stream, queried once. Its report must equal the service's —
/// that equality is the distributed correctness gate. An invalid spec
/// fails typed, as it does for [`run_job`].
pub fn run_reference(spec: &JobSpec) -> io::Result<QueryReport> {
    fn typed<S, U>(
        spec: &JobSpec,
        stream: &[U],
        build: impl FnOnce(ShardedSamplerBuilder) -> ShardedSampler<S, U>,
    ) -> QueryReport
    where
        S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
        U: StreamUpdate,
    {
        let mut sampler = build(ShardedSamplerBuilder::new(spec.workers).seed(spec.seed));
        sampler.ingest_batch(stream);
        QueryReport::of::<S, U>(stream.len() as u64, sampler.merged())
    }
    spec.validate().map_err(invalid)?;
    Ok(match spec.sampler {
        SamplerKind::L2 => typed(
            spec,
            &job_stream(spec.universe, spec.count, spec.seed),
            |b| b.build(|shard| make_l2(spec.universe, spec.seed, shard)),
        ),
        SamplerKind::F0 => typed(
            spec,
            &job_stream(spec.universe, spec.count, spec.seed),
            |b| b.build(|shard| make_f0(spec.universe, spec.seed, shard)),
        ),
        SamplerKind::G => typed(
            spec,
            &job_stream(spec.universe, spec.count, spec.seed),
            |b| b.build(|shard| make_g(spec.universe, spec.seed, shard)),
        ),
        SamplerKind::Turnstile => typed(
            spec,
            &job_signed_stream(spec.universe, spec.count, spec.seed),
            |b| b.build_turnstile(|shard| make_turnstile(spec.universe, spec.seed, shard)),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceBuilder;
    use tps_streams::Item;

    #[test]
    fn report_lines_round_trip() {
        let report = QueryReport {
            processed: 123_456,
            merged_fnv: 0xDEAD_BEEF_0BAD_F00D,
            sample: "index:42".to_string(),
        };
        assert_eq!(QueryReport::parse(&report.to_string()), Some(report));
        assert_eq!(QueryReport::parse("nonsense"), None);
    }

    #[test]
    fn reference_is_deterministic_per_seed() {
        let spec = ServiceBuilder::new(SamplerKind::L2, 3)
            .universe(1 << 12)
            .seed(5)
            .count(30_000)
            .chunk(1_000)
            .checkpoint_every(4)
            .checkpoint_dir(std::env::temp_dir())
            .build()
            .unwrap();
        let a = run_reference(&spec).unwrap();
        let b = run_reference(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.processed, 30_000);
        let empty = JobSpec {
            universe: 0,
            ..spec.clone()
        };
        let err = run_reference(&empty).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let other = JobSpec { seed: 6, ..spec };
        assert_ne!(a.merged_fnv, run_reference(&other).unwrap().merged_fnv);
    }

    /// How long a scripted worker waits for a frame: a coordinator that
    /// withholds one fails the test instead of hanging it.
    const SCRIPT_TIMEOUT: Duration = Duration::from_secs(10);

    /// A link to a scripted worker over a real socket: the worker thread
    /// sends its `Hello`, then runs `script` on its end of the connection,
    /// with a clone of the socket to probe for unread bytes.
    fn scripted_link(
        script: impl FnOnce(&mut TcpConnection, &std::net::TcpStream) + Send + 'static,
    ) -> (WorkerHandle<Item>, std::thread::JoinHandle<()>) {
        use std::net::TcpListener;
        use tps_streams::wire::transport::tcp_framed;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(SCRIPT_TIMEOUT)).unwrap();
            let probe = stream.try_clone().unwrap();
            let mut conn = tcp_framed(stream).unwrap();
            conn.send(&WireMessage::hello(0, 0)).unwrap();
            script(&mut conn, &probe);
        });
        let mut link = WorkerHandle::new(0, Box::new(tcp_connect(addr).unwrap()));
        assert_eq!(link.handshake().unwrap(), 0);
        (link, worker)
    }

    /// Reads one piece and its `Sync`: the piece's items and the sync's
    /// sequence number.
    fn read_piece(conn: &mut TcpConnection) -> (Vec<Item>, u64) {
        let items = match conn.recv().unwrap() {
            Some(WireMessage::Ingest { items }) => items,
            other => panic!("expected a piece, got {other:?}"),
        };
        match conn.recv().unwrap() {
            Some(WireMessage::Barrier {
                epoch,
                kind: BarrierKind::Sync,
            }) => (items, epoch),
            other => panic!("expected the piece's sync, got {other:?}"),
        }
    }

    /// Asserts that no byte arrives on the socket for 300 ms, then
    /// restores the socket's (shared) read timeout.
    fn assert_silent(probe: &std::net::TcpStream, what: &str) {
        probe
            .set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        match probe.peek(&mut [0u8; 1]) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            other => panic!("a frame arrived {what}: {other:?}"),
        }
        probe.set_read_timeout(Some(SCRIPT_TIMEOUT)).unwrap();
    }

    fn ack(conn: &mut TcpConnection, epoch: u64, snapshot: Option<Vec<u8>>) {
        conn.send(&WireMessage::BarrierAck {
            shard: 0,
            epoch,
            snapshot,
        })
        .unwrap();
    }

    /// A part longer than a piece arrives as ⌈len / RUNTIME_CHUNK⌉
    /// `Ingest` + `Sync` pairs, in order, that concatenate to the part.
    #[test]
    fn a_long_part_arrives_as_pieces_in_order() {
        let part: Vec<Item> = (0..2 * RUNTIME_CHUNK as u64 + 5).collect();
        let expected = part.clone();
        let (mut link, worker) = scripted_link(move |conn, _| {
            let mut received = Vec::new();
            let mut lens = Vec::new();
            for seq in 1..=3 {
                let (items, sync) = read_piece(conn);
                assert_eq!(sync, seq);
                lens.push(items.len());
                received.extend(items);
                ack(conn, seq, None);
            }
            assert_eq!(lens, [RUNTIME_CHUNK, RUNTIME_CHUNK, 5]);
            assert!(
                received == expected,
                "the pieces do not concatenate to the part"
            );
        });
        assert!(link.ship(part).unwrap().is_empty());
        worker.join().unwrap();
        assert_eq!(link.syncs_sent, 3);
    }

    /// The lead rule over a real socket: a worker that withholds its acks
    /// receives exactly `RING_CAPACITY + 1` pieces, then no byte until it
    /// acks one, and then the next piece.
    #[test]
    fn a_worker_that_withholds_acks_gets_exactly_three_pieces() {
        use std::sync::mpsc;

        let (acked_tx, acked_rx) = mpsc::channel();
        let (mut link, worker) = scripted_link(move |conn, probe| {
            for seq in 1..=3 {
                assert_eq!(read_piece(conn).1, seq);
            }
            assert_silent(probe, "past the lead bound");
            acked_tx.send(()).unwrap();
            ack(conn, 1, None);
            assert_eq!(read_piece(conn), (vec![3 * RUNTIME_CHUNK as u64], 4));
        });
        let part: Vec<Item> = (0..=3 * RUNTIME_CHUNK as u64).collect();
        link.ship(part).unwrap();
        // `ship` returned, so the fourth piece went out after the ack.
        acked_rx
            .try_recv()
            .expect("the fourth piece shipped before an ack");
        worker.join().unwrap();
        assert_eq!((link.syncs_sent, link.syncs_acked), (4, 1));
    }

    /// A query barrier at a chunk boundary follows the chunk's last piece
    /// without waiting for its `Sync` acks, and no piece of the next chunk
    /// is sent before the barrier's ack has been read.
    #[test]
    fn a_query_barrier_follows_the_chunk_without_draining_the_link() {
        use std::sync::mpsc;

        let (acked_tx, acked_rx) = mpsc::channel();
        let (link, worker) = scripted_link(move |conn, probe| {
            for seq in 1..=2 {
                assert_eq!(read_piece(conn).1, seq);
            }
            // Both syncs unacked, and the barrier is already here.
            assert_eq!(
                conn.recv().unwrap(),
                Some(WireMessage::Barrier {
                    epoch: 1,
                    kind: BarrierKind::Query,
                })
            );
            assert_silent(probe, "before the barrier's ack");
            acked_tx.send(()).unwrap();
            ack(conn, 1, None);
            ack(conn, 2, None);
            ack(conn, 1, Some(vec![7]));
            assert_eq!(read_piece(conn), (vec![42], 3));
        });
        let mut workers = [link];
        let mut pieces = vec![Vec::new()];
        let chunk: Vec<Item> = (0..2 * RUNTIME_CHUNK as u64).collect();
        route_chunk(&mut workers, &mut pieces, &chunk, 0, 0).unwrap();
        let snapshots = barrier_all(&mut workers, 1, BarrierKind::Query).unwrap();
        assert_eq!(snapshots, [vec![7]]);
        acked_rx
            .try_recv()
            .expect("the barrier returned before its ack");
        route_chunk(&mut workers, &mut pieces, &[42], 1, 1).unwrap();
        worker.join().unwrap();
        assert_eq!(workers[0].replay, [(0, 0), (1, 1)]);
    }

    /// A manifest's replay parts are located in the regenerated stream
    /// before any worker is attached; a part that disagrees with the
    /// stream fails the resume as `InvalidData` instead of being replaced
    /// by whatever the stream holds at that position.
    #[test]
    fn resume_rejects_a_replay_that_disagrees_with_the_stream() {
        let dir = std::env::temp_dir().join(format!("tps-resume-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = ServiceBuilder::new(SamplerKind::L2, 2)
            .universe(1 << 12)
            .seed(77)
            .count(30_000)
            .chunk(1_000)
            .checkpoint_every(3)
            .checkpoint_dir(&dir)
            .build()
            .unwrap();
        let stream = job_stream(spec.universe, spec.count, spec.seed);
        // The manifest before barrier 2: chunks 3..6, tagged 1.
        let mut manifest = Manifest {
            spec: spec.clone(),
            epoch: 2,
            chunks_routed: 6,
            shards: (0..spec.workers)
                .map(|shard| ShardState {
                    acked_epoch: 1,
                    endpoint: None,
                    replay: (3..6)
                        .map(|index| {
                            let mut part = Vec::new();
                            route_part(&stream, &spec, index, shard, &mut part);
                            (1, part)
                        })
                        .collect(),
                })
                .collect(),
        };
        for (shard, state) in manifest.shards.iter().enumerate() {
            assert_eq!(
                locate_replay(&stream, &spec, shard, 6, state).unwrap(),
                [(1, 3), (1, 4), (1, 5)]
            );
        }

        manifest.shards[1].replay[1].1[0] ^= 1;
        let store = CheckpointStore::for_coordinator(&dir);
        let frame = IncrementalCheckpointer::new().checkpoint_bytes(manifest.encode(), 1);
        store.append_frame(frame.bytes()).unwrap();
        let err = resume_job(&dir, None, &QueryPlan::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("chunk 4 does not match"),
            "unexpected error: {err}"
        );
        assert!(
            !CheckpointStore::for_shard(&dir, 0).path().exists(),
            "a worker was attached before the replay was checked"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
