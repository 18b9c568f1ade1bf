//! The worker process: owns exactly one shard of the job's sampler, talks
//! the [`tps_streams::wire`] protocol over whichever transport the job
//! uses (stdin/stdout pipes or a TCP listener), and keeps an incremental
//! checkpoint chain on disk.
//!
//! Lifecycle per connection: recover from the on-disk chain (if any),
//! announce the recovered epoch in `Hello`, then loop — apply `Ingest`
//! chunks in arrival order; on a `Checkpoint` barrier append a delta
//! frame durably *before* acking (and GC the chain when the checkpointer
//! rebased); on a `Query` barrier ack with the full sealed snapshot; on a
//! `CheckpointPublish` barrier do both — the checkpoint frame goes to
//! disk *and* the ack carries the snapshot, feeding the coordinator's
//! query-plane snapshot cache in the same round; on a `Sync` barrier ack
//! at once with no snapshot and no disk write (the coordinator's flow
//! control: it ships this worker's next piece only while at most two
//! earlier pieces are unacked). The
//! worker never sees the stream outside its shard and never touches the
//! golden-corpus registry: its entire interface is the connection and the
//! chain file.
//!
//! In `--listen` mode the worker outlives its coordinator: when the
//! connection drops without a clean `Shutdown`, it loops back to accept.
//! Crucially, each new connection starts from the **on-disk chain**, not
//! from whatever in-memory state the previous connection accumulated —
//! un-checkpointed work is deliberately discarded, because the replacement
//! coordinator only re-sends chunks past the last durable checkpoint.
//! Keeping the in-memory tail would double-count them.

use std::io::{self, Write};

use tps_streams::codec::delta::IncrementalCheckpointer;
use tps_streams::codec::{Restore, Snapshot};
use tps_streams::wire::transport::{Connection, Listener, StdioListener, TcpServerListener};
use tps_streams::wire::{BarrierKind, IngestPayload, WireError, WireMessage};
use tps_streams::UpdateSampler;

use crate::config::{make_f0, make_g, make_l2, make_turnstile, SamplerKind, WorkerConfig};
use crate::store::CheckpointStore;

fn wire_to_io(e: WireError) -> io::Error {
    match e {
        WireError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Runs the worker over its configured transport: `listen = Some(addr)`
/// binds a TCP listener there (announcing `listening <bound-addr>` on
/// stdout, which resolves ephemeral `:0` ports for a spawning
/// coordinator); `None` serves this process's stdin/stdout once.
pub fn run(cfg: &WorkerConfig) -> io::Result<()> {
    match &cfg.listen {
        Some(addr) => {
            let mut listener = TcpServerListener::bind(addr.as_str())?;
            println!("listening {}", listener.local_addr()?);
            io::stdout().flush()?;
            accept_loop(cfg, &mut listener)
        }
        None => accept_loop(cfg, &mut StdioListener::new()),
    }
}

/// Serves connections until the transport is exhausted or a coordinator
/// sends a clean `Shutdown`. A connection that drops mid-job (dead
/// coordinator) or errors is *not* fatal in listen mode — the worker logs
/// and goes back to accepting; its durable chain carries the state. In
/// pipe mode the transport is one-shot, so a failed conversation
/// propagates as this process's exit status.
fn accept_loop<L: Listener>(cfg: &WorkerConfig, listener: &mut L) -> io::Result<()> {
    let mut last: io::Result<()> = Ok(());
    loop {
        let Some(mut conn) = listener.accept()? else {
            return last; // transport out of connections (stdio one-shot)
        };
        let served = match cfg.sampler {
            SamplerKind::L2 => serve(
                cfg,
                || make_l2(cfg.universe, cfg.seed, cfg.shard),
                &mut conn,
            ),
            SamplerKind::F0 => serve(
                cfg,
                || make_f0(cfg.universe, cfg.seed, cfg.shard),
                &mut conn,
            ),
            SamplerKind::G => serve(cfg, || make_g(cfg.universe, cfg.seed, cfg.shard), &mut conn),
            SamplerKind::Turnstile => serve(
                cfg,
                || make_turnstile(cfg.universe, cfg.seed, cfg.shard),
                &mut conn,
            ),
        };
        match served {
            Ok(true) => return Ok(()),  // clean shutdown: the job is done
            Ok(false) => last = Ok(()), // peer vanished; state is on disk
            Err(e) => {
                eprintln!("worker {}: connection failed: {e}", cfg.shard);
                last = Err(e);
            }
        }
    }
}

/// One coordinator conversation over an explicit [`Connection`]
/// (unit-testable without a process boundary). `fresh` builds the shard's
/// state if no checkpoint chain exists — evaluated per call, so every
/// conversation starts from durable state only. Returns `true` if the
/// coordinator ended the job with `Shutdown`, `false` on bare EOF.
///
/// Generic over the update type `U` the shard consumes: insertion-only
/// shards receive [`WireMessage::Ingest`] frames, turnstile shards
/// [`WireMessage::IngestSigned`] — [`IngestPayload`] picks the right
/// variant per `U`, and everything else (checkpoint chains, barriers,
/// recovery) is identical.
pub fn serve<S, U, C>(
    cfg: &WorkerConfig,
    fresh: impl FnOnce() -> S,
    conn: &mut C,
) -> io::Result<bool>
where
    S: UpdateSampler<U> + Snapshot + Restore,
    U: IngestPayload,
    C: Connection + ?Sized,
{
    let store = CheckpointStore::for_shard(&cfg.checkpoint_dir, cfg.shard);
    let (mut sampler, mut checkpointer, resume_epoch) = match store.recover()? {
        Some(chain) => {
            let restored = S::restore(&chain.snapshot).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("recovered checkpoint does not restore: {e}"),
                )
            })?;
            let epoch = chain.epoch;
            (
                restored,
                IncrementalCheckpointer::resume(epoch, chain.snapshot, chain.deltas_since_base),
                epoch,
            )
        }
        None => (fresh(), IncrementalCheckpointer::new(), 0),
    };

    conn.send(&WireMessage::hello(cfg.shard as u64, resume_epoch))?;

    while let Some(msg) = conn.recv().map_err(wire_to_io)? {
        match msg {
            WireMessage::Barrier { epoch, kind } => {
                if let BarrierKind::Checkpoint | BarrierKind::CheckpointPublish = kind {
                    let frame = checkpointer.checkpoint(&sampler, epoch);
                    store.append_frame(frame.bytes())?;
                    if !frame.is_delta() {
                        // The checkpointer rebased: everything before this
                        // full frame is unreachable — collect it.
                        store.compact()?;
                    }
                }
                // A publishing checkpoint acks the full snapshot too: one
                // barrier round feeds both the durable chain and the
                // coordinator's snapshot cache.
                conn.send(&WireMessage::BarrierAck {
                    shard: cfg.shard as u64,
                    epoch,
                    snapshot: kind.publishes().then(|| sampler.snapshot()),
                })?;
            }
            WireMessage::Shutdown => return Ok(true),
            other => match U::from_ingest(other) {
                Ok(updates) => sampler.ingest_batch(&updates),
                Err(unexpected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected coordinator message: {unexpected:?}"),
                    ))
                }
            },
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::make_l2;
    use std::path::PathBuf;
    use tps_core::lp::TrulyPerfectLpSampler;
    use tps_streams::codec::delta::{peek_frame, FrameKind};
    use tps_streams::wire::transport::FramedConnection;
    use tps_streams::wire::{encode_message, read_message};
    use tps_streams::StreamSampler;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tps-worker-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn script(messages: &[WireMessage]) -> Vec<u8> {
        let mut pipe = Vec::new();
        for msg in messages {
            let frame = encode_message(msg);
            pipe.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            pipe.extend_from_slice(&frame);
        }
        pipe
    }

    fn replies(output: &[u8]) -> Vec<WireMessage> {
        let mut cursor = std::io::Cursor::new(output.to_vec());
        let mut out = Vec::new();
        while let Some(msg) = read_message(&mut cursor).unwrap() {
            out.push(msg);
        }
        out
    }

    /// Runs one scripted conversation against the serve loop, returning
    /// (clean_shutdown, replies).
    fn converse<S, U>(
        cfg: &WorkerConfig,
        fresh: impl FnOnce() -> S,
        messages: &[WireMessage],
    ) -> (bool, Vec<WireMessage>)
    where
        S: UpdateSampler<U> + Snapshot + Restore,
        U: IngestPayload,
    {
        let input = script(messages);
        let mut output = Vec::new();
        let mut conn = FramedConnection::new(input.as_slice(), &mut output);
        let done = serve(cfg, fresh, &mut conn).unwrap();
        drop(conn);
        (done, replies(&output))
    }

    #[test]
    fn worker_checkpoints_recovers_and_matches_uninterrupted_state() {
        let dir = temp_dir("recover");
        let cfg = WorkerConfig {
            shard: 0,
            sampler: SamplerKind::L2,
            universe: 1 << 12,
            seed: 21,
            checkpoint_dir: dir.clone(),
            listen: None,
        };
        let store = CheckpointStore::for_shard(&dir, 0);
        let _ = std::fs::remove_file(store.path());

        let chunk_a: Vec<u64> = (0..4_000u64).map(|i| i % 97).collect();
        let chunk_b: Vec<u64> = (0..4_000u64).map(|i| i % 131).collect();

        // Session 1: ingest chunk A, checkpoint at epoch 1, then ingest
        // chunk B and "crash" (no checkpoint, no shutdown — EOF).
        let (done, first) = converse(
            &cfg,
            || make_l2(cfg.universe, cfg.seed, cfg.shard),
            &[
                WireMessage::Ingest {
                    items: chunk_a.clone(),
                },
                WireMessage::Barrier {
                    epoch: 1,
                    kind: BarrierKind::Checkpoint,
                },
                WireMessage::Ingest {
                    items: chunk_b.clone(),
                },
            ],
        );
        assert!(!done, "EOF is not a clean shutdown");
        assert_eq!(first[0], WireMessage::hello(0, 0));
        assert!(matches!(
            first[1],
            WireMessage::BarrierAck {
                epoch: 1,
                snapshot: None,
                ..
            }
        ));

        // Session 2: the restarted worker resumes from epoch 1; the
        // coordinator re-sends chunk B; a query must match a never-crashed
        // sampler that saw A then B.
        let (done, second) = converse(
            &cfg,
            || make_l2(cfg.universe, cfg.seed, cfg.shard),
            &[
                WireMessage::Ingest {
                    items: chunk_b.clone(),
                },
                WireMessage::Barrier {
                    epoch: 2,
                    kind: BarrierKind::Query,
                },
                WireMessage::Shutdown,
            ],
        );
        assert!(done, "Shutdown is a clean end");
        assert_eq!(second[0], WireMessage::hello(0, 1));
        let recovered_snapshot = match &second[1] {
            WireMessage::BarrierAck {
                epoch: 2,
                snapshot: Some(bytes),
                ..
            } => bytes.clone(),
            other => panic!("expected query ack, got {other:?}"),
        };

        let mut uninterrupted = make_l2(cfg.universe, cfg.seed, cfg.shard);
        uninterrupted.update_batch(&chunk_a);
        uninterrupted.update_batch(&chunk_b);
        assert_eq!(
            recovered_snapshot,
            uninterrupted.snapshot(),
            "recovery + replay drifted from the uninterrupted run"
        );
        // And the recovered snapshot is a live sampler.
        let _ = TrulyPerfectLpSampler::restore(&recovered_snapshot).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The same crash/recover/replay contract for a turnstile shard: the
    /// generic serve loop consumes `IngestSigned` frames, checkpoints the
    /// strict-turnstile sampler's delta chain, and after recovery + replay
    /// the queried snapshot is byte-identical to a never-crashed sampler
    /// over the same signed stream.
    #[test]
    fn turnstile_worker_recovers_and_matches_uninterrupted_state() {
        use tps_core::turnstile::StrictTurnstileF0Sampler;
        use tps_streams::{SignedUpdate, TurnstileSampler};

        let dir = temp_dir("turnstile-recover");
        let cfg = WorkerConfig {
            shard: 0,
            sampler: SamplerKind::Turnstile,
            universe: 1 << 12,
            seed: 23,
            checkpoint_dir: dir.clone(),
            listen: None,
        };
        let store = CheckpointStore::for_shard(&dir, 0);
        let _ = std::fs::remove_file(store.path());

        // Inserts with a deterministic sprinkling of deletes; every prefix
        // keeps counts non-negative.
        let signed = |offset: u64, len: u64| -> Vec<SignedUpdate> {
            (0..len)
                .flat_map(|i| {
                    let item = (offset + i) % 97;
                    let mut updates = vec![SignedUpdate { item, delta: 1 }];
                    if i % 3 == 0 {
                        updates.push(SignedUpdate { item, delta: 1 });
                        updates.push(SignedUpdate { item, delta: -1 });
                    }
                    updates
                })
                .collect()
        };
        let chunk_a = signed(0, 3_000);
        let chunk_b = signed(11, 3_000);

        let (done, _) = converse(
            &cfg,
            || make_turnstile(cfg.universe, cfg.seed, cfg.shard),
            &[
                WireMessage::IngestSigned {
                    updates: chunk_a.clone(),
                },
                WireMessage::Barrier {
                    epoch: 1,
                    kind: BarrierKind::Checkpoint,
                },
                WireMessage::IngestSigned {
                    updates: chunk_b.clone(),
                },
            ],
        );
        assert!(!done);

        let (done, second) = converse(
            &cfg,
            || make_turnstile(cfg.universe, cfg.seed, cfg.shard),
            &[
                WireMessage::IngestSigned {
                    updates: chunk_b.clone(),
                },
                WireMessage::Barrier {
                    epoch: 2,
                    kind: BarrierKind::Query,
                },
                WireMessage::Shutdown,
            ],
        );
        assert!(done);
        assert_eq!(second[0], WireMessage::hello(0, 1));
        let recovered_snapshot = match &second[1] {
            WireMessage::BarrierAck {
                epoch: 2,
                snapshot: Some(bytes),
                ..
            } => bytes.clone(),
            other => panic!("expected query ack, got {other:?}"),
        };

        let mut uninterrupted = make_turnstile(cfg.universe, cfg.seed, cfg.shard);
        uninterrupted.update_batch(&chunk_a);
        uninterrupted.update_batch(&chunk_b);
        assert_eq!(
            recovered_snapshot,
            uninterrupted.snapshot(),
            "turnstile recovery + replay drifted from the uninterrupted run"
        );
        let _ = StrictTurnstileF0Sampler::restore(&recovered_snapshot).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `CheckpointPublish` barrier is a checkpoint *and* a query in one
    /// round: the frame lands on the durable chain (the next session
    /// resumes from it) and the ack carries the full snapshot, identical
    /// to what a `Query` barrier at the same point would return.
    #[test]
    fn checkpoint_publish_acks_the_snapshot_and_stays_durable() {
        let dir = temp_dir("publish");
        let cfg = WorkerConfig {
            shard: 0,
            sampler: SamplerKind::L2,
            universe: 1 << 12,
            seed: 31,
            checkpoint_dir: dir.clone(),
            listen: None,
        };
        let store = CheckpointStore::for_shard(&dir, 0);
        let _ = std::fs::remove_file(store.path());

        let chunk: Vec<u64> = (0..4_000u64).map(|i| i % 113).collect();
        let (done, out) = converse(
            &cfg,
            || make_l2(cfg.universe, cfg.seed, cfg.shard),
            &[
                WireMessage::Ingest {
                    items: chunk.clone(),
                },
                WireMessage::Barrier {
                    epoch: 1,
                    kind: BarrierKind::CheckpointPublish,
                },
                WireMessage::Shutdown,
            ],
        );
        assert!(done);
        let published = match &out[1] {
            WireMessage::BarrierAck {
                epoch: 1,
                snapshot: Some(bytes),
                ..
            } => bytes.clone(),
            other => panic!("expected publishing ack, got {other:?}"),
        };
        let mut reference = make_l2(cfg.universe, cfg.seed, cfg.shard);
        reference.update_batch(&chunk);
        assert_eq!(
            published,
            reference.snapshot(),
            "published snapshot drifted from the uninterrupted sampler"
        );
        // And the same barrier made the cut durable.
        assert_eq!(store.recover().unwrap().unwrap().epoch, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `Sync` barrier is flow control only: it is acked at once with no
    /// snapshot, leaves nothing on the durable chain, and the shard's
    /// state on either side of it is the same.
    #[test]
    fn sync_barrier_acks_bare_and_touches_no_state() {
        let dir = temp_dir("sync");
        let cfg = WorkerConfig {
            shard: 0,
            sampler: SamplerKind::L2,
            universe: 1 << 12,
            seed: 37,
            checkpoint_dir: dir.clone(),
            listen: None,
        };
        let store = CheckpointStore::for_shard(&dir, 0);
        let _ = std::fs::remove_file(store.path());

        let chunk: Vec<u64> = (0..4_000u64).map(|i| i % 89).collect();
        let (done, out) = converse(
            &cfg,
            || make_l2(cfg.universe, cfg.seed, cfg.shard),
            &[
                WireMessage::Ingest {
                    items: chunk.clone(),
                },
                WireMessage::Barrier {
                    epoch: 1,
                    kind: BarrierKind::Query,
                },
                WireMessage::Barrier {
                    epoch: 7,
                    kind: BarrierKind::Sync,
                },
                WireMessage::Barrier {
                    epoch: 2,
                    kind: BarrierKind::Query,
                },
                WireMessage::Shutdown,
            ],
        );
        assert!(done);
        let snapshot = |msg: &WireMessage| match msg {
            WireMessage::BarrierAck {
                snapshot: Some(bytes),
                ..
            } => bytes.clone(),
            other => panic!("expected query ack, got {other:?}"),
        };
        assert_eq!(
            out[2],
            WireMessage::BarrierAck {
                shard: 0,
                epoch: 7,
                snapshot: None,
            }
        );
        assert_eq!(snapshot(&out[1]), snapshot(&out[3]), "sync moved the state");
        let mut reference = make_l2(cfg.universe, cfg.seed, cfg.shard);
        reference.update_batch(&chunk);
        assert_eq!(snapshot(&out[3]), reference.snapshot());
        assert!(
            store.recover().unwrap().is_none(),
            "sync appended a chain frame"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Serving many checkpoint barriers keeps the on-disk chain
    /// compacted: after the checkpointer rebases, the chain starts at the
    /// newest full frame instead of growing without bound.
    #[test]
    fn checkpoint_chain_is_garbage_collected_across_rebases() {
        let dir = temp_dir("gc");
        let cfg = WorkerConfig {
            shard: 0,
            sampler: SamplerKind::L2,
            universe: 1 << 12,
            seed: 29,
            checkpoint_dir: dir.clone(),
            listen: None,
        };
        let store = CheckpointStore::for_shard(&dir, 0);
        let _ = std::fs::remove_file(store.path());

        // Alternate big ingests and checkpoints: large state churn makes
        // deltas expensive, so the checkpointer rebases regularly.
        let mut messages = Vec::new();
        for round in 0..12u64 {
            messages.push(WireMessage::Ingest {
                items: (0..2_000u64).map(|i| (i * (round + 3)) % 4096).collect(),
            });
            messages.push(WireMessage::Barrier {
                epoch: round + 1,
                kind: BarrierKind::Checkpoint,
            });
        }
        messages.push(WireMessage::Shutdown);
        let (done, _) = converse(
            &cfg,
            || make_l2(cfg.universe, cfg.seed, cfg.shard),
            &messages,
        );
        assert!(done);

        let frames = store.load_frames().unwrap();
        assert!(!frames.is_empty());
        assert_eq!(
            peek_frame(&frames[0]).unwrap().0,
            FrameKind::Full,
            "chain must start at its base after GC"
        );
        let fulls = frames
            .iter()
            .filter(|f| matches!(peek_frame(f), Ok((FrameKind::Full, _))))
            .count();
        assert_eq!(
            fulls,
            1,
            "exactly one full frame survives GC, got {fulls} in {} frames",
            frames.len()
        );
        // And the compacted chain still recovers to the final epoch.
        assert_eq!(store.recover().unwrap().unwrap().epoch, 12);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
