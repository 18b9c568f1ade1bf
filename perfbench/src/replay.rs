//! The per-layer replay: the service's composition of layers re-driven on
//! one thread through each layer's public function, one span per call.
//!
//! Per chunk, as the coordinator and a worker do it: route with
//! `hash_route` (`coordinator.scatter`), frame each shard's chunk with
//! `encode_message` (`wire.encode`), send it over a `TcpConnection` to a
//! peer thread that reads and drops every frame (`transport.send`), decode
//! the frame (`wire.decode`) and feed the shard's sampler through
//! `ingest_batch` (`engine.ingest`), keeping the chunk in the shard's
//! replay buffer. Every [`DURABLE_CADENCE`] chunks, a publishing checkpoint
//! barrier: the coordinator encodes its `Manifest` (`manifest.encode`),
//! delta-encodes it against the previous one (`delta.manifest_encode`) and
//! appends it to its chain (`store.append`, `store.compact` after a full
//! frame); each shard snapshots (`codec.snapshot`), delta-encodes
//! (`delta.shard_encode`), appends and acks with a second snapshot; the
//! query plane's first reader of the cut restores the snapshots
//! (`codec.restore`) and fold-merges them with `seed ^ MERGE_SEED_SALT`
//! (`merge.fold`). The final query barrier does the same once more and
//! yields the report line, which must equal the service's.
//!
//! Two probes time what the replay cannot: the query plane's accept loop
//! ([`accept_latency`]) and one sampler over the whole stream
//! ([`single_engine`]).

use std::fs;
use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::{hash_route, MERGE_SEED_SALT};
use tps_random::Xoshiro256;
use tps_service::config::JobSpec;
use tps_service::manifest::{Manifest, ShardState};
use tps_service::CheckpointStore;
use tps_streams::codec::delta::IncrementalCheckpointer;
use tps_streams::wire::transport::{tcp_connect, Connection, Listener, TcpServerListener};
use tps_streams::wire::{decode_message, encode_message, IngestPayload, WireMessage};
use tps_streams::{Item, MergeableSampler, Restore, Snapshot, UpdateSampler};

use crate::job::{report_line, shard_sampler, JobShape, CHUNK, DURABLE_CADENCE, SHARDS};
use crate::stats::{OpenLoopSchedule, Samples};
use crate::trace::Tracer;

/// A loopback endpoint of the same length the self-spawned workers
/// announce, so manifests have the service's size.
const ENDPOINT: &str = "127.0.0.1:40000";

/// Byte and event counts gathered alongside the spans (they do not need
/// the clock, so an untraced replay counts them too).
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub updates: u64,
    pub ingest_frames: u64,
    pub ingest_frame_bytes: u64,
    pub replay_peak_bytes: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    pub shard_frames: u64,
    pub shard_frame_bytes: u64,
    pub shard_full_frames: u64,
    pub manifests: u64,
    pub manifest_bytes: u64,
    pub manifest_frame_bytes: u64,
    pub fsyncs: u64,
    pub bytes_synced: u64,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

struct Shard {
    sampler: TrulyPerfectLpSampler,
    checkpointer: IncrementalCheckpointer,
    store: CheckpointStore,
    replay: Vec<(u64, Vec<Item>)>,
    acked_epoch: u64,
}

/// One chain append (`sync_data` inside), then the collection a full
/// frame makes possible.
fn persist(
    t: &mut Tracer,
    store: &CheckpointStore,
    frame: &[u8],
    full: bool,
    counts: &mut Counts,
) -> io::Result<()> {
    t.span("store.append", |_| store.append_frame(frame))?;
    counts.fsyncs += 1;
    counts.bytes_synced += 8 + frame.len() as u64;
    if full && t.span("store.compact", |_| store.compact())? > 0 {
        // The rewrite syncs the new chain file and its directory.
        counts.fsyncs += 2;
        counts.bytes_synced += fs::metadata(store.path())?.len();
    }
    Ok(())
}

/// Restores the cut's snapshots and fold-merges them in shard order.
fn merge(t: &mut Tracer, snapshots: &[Vec<u8>], seed: u64) -> io::Result<TrulyPerfectLpSampler> {
    t.span("merge.fold", |t| {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ MERGE_SEED_SALT);
        let mut merged: Option<TrulyPerfectLpSampler> = None;
        for (shard, bytes) in snapshots.iter().enumerate() {
            let restored = t
                .shard_span("codec.restore", shard, |_| {
                    TrulyPerfectLpSampler::restore(bytes)
                })
                .map_err(|e| invalid(format!("shard {shard} snapshot does not restore: {e}")))?;
            merged = Some(match merged {
                None => restored,
                Some(acc) => acc.merge(restored, &mut rng),
            });
        }
        merged.ok_or_else(|| invalid("no shards to merge".into()))
    })
}

fn snapshot(t: &mut Tracer, shard: usize, state: &Shard, counts: &mut Counts) -> Vec<u8> {
    let bytes = t.shard_span("codec.snapshot", shard, |_| state.sampler.snapshot());
    counts.snapshots += 1;
    counts.snapshot_bytes += bytes.len() as u64;
    bytes
}

/// Replays the job over `stream` with checkpoint chains in the (fresh)
/// `spec.checkpoint_dir`, returning the final report line.
pub fn replay(
    t: &mut Tracer,
    shape: &JobShape,
    spec: &JobSpec,
    stream: &[Item],
    counts: &mut Counts,
) -> io::Result<String> {
    let dir = &spec.checkpoint_dir;
    fs::create_dir_all(dir)?;
    let listener = TcpServerListener::bind("127.0.0.1:0")?;
    // Dialled before the peer thread starts: the kernel completes the
    // handshake from the listen backlog, and a failed dial leaves no
    // thread blocked in accept.
    let mut conn = tcp_connect(listener.local_addr()?)?;
    std::thread::scope(|scope| {
        let drain = scope.spawn(move || -> io::Result<u64> {
            let mut listener = listener;
            let mut conn = listener
                .accept()?
                .ok_or_else(|| invalid("listener closed".into()))?;
            let mut frames = 0;
            while conn.recv().map_err(|e| invalid(e.to_string()))?.is_some() {
                frames += 1;
            }
            Ok(frames)
        });
        let report = drive(t, shape, spec, stream, dir, &mut conn, counts);
        let shutdown = conn.send(&WireMessage::Shutdown);
        drop(conn);
        let frames = drain.join().expect("drain thread panicked")?;
        shutdown?;
        let report = report?;
        let expected = counts.ingest_frames + 1;
        if frames != expected {
            return Err(invalid(format!(
                "peer drained {frames} frames, sent {expected}"
            )));
        }
        Ok(report)
    })
}

fn drive(
    t: &mut Tracer,
    shape: &JobShape,
    spec: &JobSpec,
    stream: &[Item],
    dir: &Path,
    conn: &mut impl Connection,
    counts: &mut Counts,
) -> io::Result<String> {
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|shard| Shard {
            sampler: shard_sampler(shape.seed, shard),
            checkpointer: IncrementalCheckpointer::new(),
            store: CheckpointStore::for_shard(dir, shard),
            replay: Vec::new(),
            acked_epoch: 0,
        })
        .collect();
    let coordinator = CheckpointStore::for_coordinator(dir);
    let mut manifest_writer = IncrementalCheckpointer::new();
    let mut manifest_seq = 0u64;
    let mut persist_manifest = |t: &mut Tracer,
                                shards: &[Shard],
                                epoch: u64,
                                chunks_routed: u64,
                                counts: &mut Counts|
     -> io::Result<()> {
        let bytes = t.span("manifest.encode", |_| {
            Manifest {
                spec: spec.clone(),
                epoch,
                chunks_routed,
                shards: shards
                    .iter()
                    .map(|s| ShardState {
                        acked_epoch: s.acked_epoch,
                        endpoint: Some(ENDPOINT.to_string()),
                        replay: s.replay.clone(),
                    })
                    .collect(),
            }
            .encode()
        });
        counts.manifests += 1;
        counts.manifest_bytes += bytes.len() as u64;
        manifest_seq += 1;
        let frame = t.span("delta.manifest_encode", |_| {
            manifest_writer.checkpoint_bytes(bytes, manifest_seq)
        });
        counts.manifest_frame_bytes += frame.bytes().len() as u64;
        persist(t, &coordinator, frame.bytes(), !frame.is_delta(), counts)
    };

    persist_manifest(t, &shards, 0, 0, counts)?;
    let mut epoch = 0u64;
    let mut chunks_routed = 0u64;
    for chunk in stream.chunks(CHUNK) {
        let routed = t.span("coordinator.scatter", |_| {
            let mut routed: Vec<Vec<Item>> = vec![Vec::new(); SHARDS];
            for &item in chunk {
                routed[hash_route(item, SHARDS)].push(item);
            }
            routed
        });
        for (index, (shard, updates)) in shards.iter_mut().zip(routed).enumerate() {
            if updates.is_empty() {
                continue;
            }
            let msg = Item::into_ingest(updates.clone());
            let frame = t.shard_span("wire.encode", index, |_| encode_message(&msg));
            counts.ingest_frames += 1;
            counts.ingest_frame_bytes += frame.len() as u64;
            t.shard_span("transport.send", index, |_| conn.send(&msg))?;
            let decoded = t
                .shard_span("wire.decode", index, |_| decode_message(&frame))
                .map_err(|e| invalid(format!("ingest frame does not decode: {e}")))?;
            let items = Item::from_ingest(decoded)
                .map_err(|other| invalid(format!("decoded {other:?}, not an ingest frame")))?;
            t.shard_span("engine.ingest", index, |_| {
                UpdateSampler::ingest_batch(&mut shard.sampler, &items)
            });
            shard.replay.push((epoch, updates));
        }
        counts.updates += chunk.len() as u64;
        chunks_routed += 1;
        let buffered: u64 = shards
            .iter()
            .flat_map(|s| &s.replay)
            .map(|(_, items)| (items.len() * std::mem::size_of::<Item>()) as u64)
            .sum();
        counts.replay_peak_bytes = counts.replay_peak_bytes.max(buffered);

        if chunks_routed.is_multiple_of(DURABLE_CADENCE) {
            epoch += 1;
            t.span("barrier", |t| -> io::Result<()> {
                persist_manifest(t, &shards, epoch, chunks_routed, counts)?;
                let mut published = Vec::with_capacity(SHARDS);
                for (index, shard) in shards.iter_mut().enumerate() {
                    let full = snapshot(t, index, shard, counts);
                    let frame = t.shard_span("delta.shard_encode", index, |_| {
                        shard.checkpointer.checkpoint_bytes(full, epoch)
                    });
                    counts.shard_frames += 1;
                    counts.shard_frame_bytes += frame.bytes().len() as u64;
                    if !frame.is_delta() {
                        counts.shard_full_frames += 1;
                    }
                    persist(t, &shard.store, frame.bytes(), !frame.is_delta(), counts)?;
                    published.push(snapshot(t, index, shard, counts));
                    shard.replay.retain(|&(tag, _)| tag >= epoch);
                    shard.acked_epoch = epoch;
                }
                merge(t, &published, shape.seed).map(drop)
            })?;
        }
    }

    t.span("barrier", |t| {
        let snapshots: Vec<Vec<u8>> = shards
            .iter()
            .enumerate()
            .map(|(index, shard)| snapshot(t, index, shard, counts))
            .collect();
        let merged = merge(t, &snapshots, shape.seed)?;
        Ok(report_line(stream.len() as u64, merged))
    })
}

/// How long the query plane's accept loop takes to pick up a connection
/// when clients dial at `per_second`: the listener is polled exactly as
/// the plane polls it (`accept_within` in 50 ms slices), a second thread
/// dials on schedule and reports when each dial completed.
pub fn accept_latency(dials: usize, per_second: f64) -> io::Result<Samples> {
    /// The plane's accept slice (`ACCEPT_SLICE` in the service's
    /// `query.rs`).
    const SLICE: Duration = Duration::from_millis(50);
    let listener = TcpServerListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let (dialed_tx, dialed_rx) = mpsc::channel::<Instant>();
    std::thread::scope(|scope| {
        let dialer = scope.spawn(move || -> io::Result<()> {
            let schedule = OpenLoopSchedule::new(Instant::now(), per_second);
            let mut open = Vec::with_capacity(dials);
            for i in 0..dials as u64 {
                let due = schedule.due(i);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                open.push(TcpStream::connect(addr)?);
                // The acceptor hung up early only if it failed; its error
                // is the one worth reporting.
                if dialed_tx.send(Instant::now()).is_err() {
                    break;
                }
            }
            Ok(())
        });
        let mut samples = Samples::default();
        let deadline =
            Instant::now() + Duration::from_secs_f64(2.0 * dials as f64 / per_second + 5.0);
        let accepted = (|| -> io::Result<()> {
            while samples.len() < dials {
                if Instant::now() > deadline {
                    return Err(invalid("dials stopped arriving".into()));
                }
                if listener.accept_within(SLICE)?.is_some() {
                    let at = Instant::now();
                    let dialed = dialed_rx
                        .recv()
                        .map_err(|_| invalid("dialer stopped early".into()))?;
                    samples.push(at.saturating_duration_since(dialed).as_secs_f64() * 1e3);
                }
            }
            Ok(())
        })();
        drop(dialed_rx);
        dialer.join().expect("dialer thread panicked")?;
        accepted.map(|()| samples)
    })
}

/// Updates per second of one sampler fed the whole stream in chunks —
/// the single-thread engine baseline.
pub fn single_engine(t: &mut Tracer, seed: u64, stream: &[Item]) -> f64 {
    let mut sampler = shard_sampler(seed, 0);
    let start = Instant::now();
    t.span("engine.single", |_| {
        for chunk in stream.chunks(CHUNK) {
            UpdateSampler::ingest_batch(&mut sampler, chunk);
        }
    });
    std::hint::black_box(sampler.snapshot().len());
    stream.len() as f64 / start.elapsed().as_secs_f64()
}
