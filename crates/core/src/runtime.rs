//! The consistent-cut protocol, written once for threads and processes.
//!
//! A truly perfect sampler's answer at a query point must be exactly the
//! reference merge at that cut. Both stacks reach that cut the same way:
//! ship routed chunks to `k` shard owners, each a [`ShardLink`], then
//! [`barrier_all`]. A [`BarrierKind::Query`] barrier makes every owner
//! emit its shard's sealed snapshot *in-band* — after everything shipped
//! before the barrier, before anything after it — so the `k` records form
//! a consistent cut, which the caller restores and folds with
//! [`crate::sharded::fold_merge`]. The ingest service implements the link
//! over a wire connection; this module's [`RingLink`] implements it with
//! one long-lived worker thread per shard, fed by a bounded SPSC ring
//! ([`tps_streams::spsc`]) of 32Ki-item chunks and barriers. A full ring
//! blocks `ship` until the worker drains a slot, so every routed chunk is
//! delivered and memory stays bounded; [`RuntimeStats`] counts the parks.
//!
//! ## Ownership and safety model
//!
//! The coordinator (e.g. [`crate::sharded::ShardedSampler`]) keeps owning
//! its shard states; a ring link borrows one as a raw pointer for its
//! worker, which is why [`RingLink::start`] is `unsafe`:
//!
//! * between `start` and the link's drop, the worker is the only code that
//!   dereferences the pointer — **except** after the coordinator collected
//!   a barrier's ack and before it sends the next command: the ring is
//!   then empty and the worker parked, so the coordinator may read (or,
//!   with `&mut` access, mutate) the shard directly;
//! * dropping the link closes the ring, lets the worker drain what is
//!   already queued, and joins it. A worker that panics drops its reply
//!   sender, so the next `ack` (or a `ship` into its closed ring) joins it
//!   and re-raises the panic on the coordinator thread, as drop does.

use std::io;
use std::sync::mpsc;
use std::thread::JoinHandle;

use tps_streams::codec::Snapshot;
use tps_streams::spsc::{self, Consumer, Producer, PushError};
use tps_streams::wire::BarrierKind;
use tps_streams::{Item, StreamUpdate, UpdateSampler};

/// One shard owner behind the consistent-cut protocol. Chunks and
/// barriers are applied in send order; a caller reads a barrier's ack
/// before it ships on the link again (as [`barrier_all`] does).
pub trait ShardLink<U> {
    /// Ships one routed chunk, blocking while the link's window is full,
    /// and returns an empty buffer to route the next chunk into.
    fn ship(&mut self, chunk: Vec<U>) -> io::Result<Vec<U>>;

    /// Sends a barrier: once every chunk shipped before it is applied, the
    /// shard owner acks `epoch`, with its sealed snapshot when `kind`
    /// publishes one.
    fn barrier(&mut self, epoch: u64, kind: BarrierKind) -> io::Result<()>;

    /// Reads the next barrier ack: the epoch it acknowledges and the
    /// snapshot it carries, if any. [`collect_acks`] checks both.
    fn ack(&mut self) -> io::Result<(u64, Option<Vec<u8>>)>;
}

/// Whether an ack to a barrier of `kind` carries the shard's snapshot.
fn publishes(kind: BarrierKind) -> bool {
    matches!(kind, BarrierKind::Query | BarrierKind::CheckpointPublish)
}

/// The consistent-cut barrier: [`send_barrier`] then [`collect_acks`].
/// Returns the snapshots in shard order for a publishing `kind`
/// ([`BarrierKind::Query`], [`BarrierKind::CheckpointPublish`]), an empty
/// vector otherwise.
pub fn barrier_all<U, L: ShardLink<U>>(
    links: &mut [L],
    epoch: u64,
    kind: BarrierKind,
) -> io::Result<Vec<Vec<u8>>> {
    send_barrier(links, epoch, kind)?;
    collect_acks(links, epoch, kind)
}

/// The first half of [`barrier_all`]: sends the barrier on every link.
pub fn send_barrier<U, L: ShardLink<U>>(
    links: &mut [L],
    epoch: u64,
    kind: BarrierKind,
) -> io::Result<()> {
    links
        .iter_mut()
        .try_for_each(|link| link.barrier(epoch, kind))
}

/// The second half of [`barrier_all`]: reads one ack per link, in shard
/// order. An ack for another epoch, or one whose snapshot is missing (or
/// present) against what `kind` publishes, fails as
/// [`io::ErrorKind::InvalidData`] naming the shard.
pub fn collect_acks<U, L: ShardLink<U>>(
    links: &mut [L],
    epoch: u64,
    kind: BarrierKind,
) -> io::Result<Vec<Vec<u8>>> {
    let mut snapshots = Vec::new();
    for (shard, link) in links.iter_mut().enumerate() {
        let wrong = match link.ack()? {
            (acked, _) if acked != epoch => format!("is for epoch {acked}"),
            (_, Some(bytes)) if publishes(kind) => {
                snapshots.push(bytes);
                continue;
            }
            (_, None) if !publishes(kind) => continue,
            (_, Some(_)) => "carries a snapshot".into(),
            (_, None) => "lacks a snapshot".into(),
        };
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("shard {shard}: its ack of the {kind:?} barrier at epoch {epoch} {wrong}"),
        ));
    }
    Ok(snapshots)
}

/// Commands buffered per shard ring: enough in-flight chunks to ride out
/// scheduling hiccups, few enough that blocked-ingest memory stays bounded.
const RING_CAPACITY: usize = 8;

/// Pressure and throughput counters of the in-process runtime (cumulative
/// over the runtime's lifetime, summed across shards). Cheap to read —
/// plain coordinator-side integers, no atomics, no barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Chunks delivered to a shard ring.
    pub chunks: u64,
    /// Times an ingest call found a ring full and had to park.
    pub blocked: u64,
    /// Always 0: the runtime never spills a chunk to a coordinator-side
    /// queue. Kept only so existing stats reports keep their field.
    pub spilled: u64,
    /// Snapshot barriers completed — each one is a consistent-cut query
    /// the runtime served by serialising every shard in-band.
    pub snapshots: u64,
}

/// One command on a shard's ring. Coarse by design: the ring is crossed
/// once per chunk, not once per update.
enum ShardCmd<U> {
    /// Feed a chunk of routed updates through the shard's batched ingest
    /// path. The buffer is recycled back to the coordinator once drained.
    Ingest(Vec<U>),
    /// Acknowledge once everything enqueued earlier has been applied, with
    /// the shard's sealed snapshot when `kind` publishes one.
    Barrier { epoch: u64, kind: BarrierKind },
}

/// Worker → coordinator responses, on the link's own channel.
enum ShardReply<U> {
    /// A drained ingest buffer, cleared, for the coordinator to reuse.
    Recycled(Vec<U>),
    /// Barrier acknowledgement (with snapshot bytes if requested).
    Ack(u64, Option<Vec<u8>>),
}

/// Sends a shard pointer into its worker thread. Safety is argued at the
/// single place these are created, [`RingLink::start`].
struct ShardPtr<S>(*mut S);
unsafe impl<S: Send> Send for ShardPtr<S> {}

/// The in-thread [`ShardLink`]: one persistent worker thread applying one
/// shard's commands from an SPSC ring, with its own reply channel (see the
/// module docs). The sampler type is erased into the worker at
/// [`RingLink::start`]; `U` is the update type moving through the ring.
/// Every barrier flushes; the publishing kinds also snapshot the shard. A
/// ring link has no durable store, so the checkpoint kinds write nothing.
pub struct RingLink<U: StreamUpdate = Item> {
    shard: usize,
    /// `None` only inside `drop`, which closes the ring by dropping it.
    commands: Option<Producer<ShardCmd<U>>>,
    replies: mpsc::Receiver<ShardReply<U>>,
    worker: Option<JoinHandle<()>>,
    /// Cleared ingest buffers handed back by the worker, returned by
    /// `ship` so steady-state ingest allocates nothing.
    free: Vec<Vec<U>>,
    stats: RuntimeStats,
}

impl<U: StreamUpdate> RingLink<U> {
    /// Spawns the persistent worker for shard `shard`, the state behind
    /// `ptr`, and wires it to a bounded ring of `RING_CAPACITY` slots.
    ///
    /// # Safety
    ///
    /// `ptr` must stay valid and un-aliased for the link's whole lifetime:
    /// until this `RingLink` is dropped, the pointee may only be accessed
    /// (a) by the worker thread, and (b) by the caller *between* collecting
    /// a barrier's ack and sending the link its next command. In
    /// particular the pointee must not move or be freed while the link is
    /// alive (the link joins its worker on drop, so dropping the link
    /// before the pointee is sufficient).
    pub unsafe fn start<S>(shard: usize, ptr: *mut S) -> Self
    where
        S: UpdateSampler<U> + Snapshot + Send + 'static,
    {
        let (commands, ring) = spsc::ring::<ShardCmd<U>>(RING_CAPACITY);
        let (reply_tx, replies) = mpsc::channel();
        let ptr = ShardPtr(ptr);
        let worker = std::thread::Builder::new()
            .name(format!("tps-shard-{shard}"))
            .spawn(move || worker_loop(ptr, ring, reply_tx))
            .expect("spawn shard worker");
        Self {
            shard,
            commands: Some(commands),
            replies,
            worker: Some(worker),
            free: Vec::new(),
            stats: RuntimeStats::default(),
        }
    }

    /// This link's `chunks` and `blocked` counters.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Enqueues `cmd`, parking while the ring is full; `true` when it had
    /// to park.
    fn push(&mut self, cmd: ShardCmd<U>) -> bool {
        let commands = self.commands.as_mut().expect("ring open until drop");
        // Fast path first so the parking events are observable.
        match commands.try_push(cmd) {
            Ok(()) => false,
            Err(PushError::Full(cmd)) => {
                if commands.push(cmd).is_err() {
                    self.worker_died();
                }
                true
            }
            Err(PushError::Disconnected(_)) => self.worker_died(),
        }
    }

    fn recycle(&mut self, buffer: Vec<U>) {
        // Bound the free list: beyond a few buffers the extras are dead
        // capacity.
        if self.free.len() < 4 {
            self.free.push(buffer);
        }
    }

    /// The worker's ring closed or its reply channel hung up before the
    /// link did: the only cause is a panic in the shard's own update path.
    /// Join it and re-raise the payload on the coordinator thread.
    fn worker_died(&mut self) -> ! {
        if let Some(worker) = self.worker.take() {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        panic!("shard worker {} exited before its link closed", self.shard);
    }
}

impl<U: StreamUpdate> ShardLink<U> for RingLink<U> {
    fn ship(&mut self, chunk: Vec<U>) -> io::Result<Vec<U>> {
        if self.push(ShardCmd::Ingest(chunk)) {
            self.stats.blocked += 1;
        }
        self.stats.chunks += 1;
        if self.free.is_empty() {
            while let Ok(reply) = self.replies.try_recv() {
                match reply {
                    ShardReply::Recycled(buffer) => self.recycle(buffer),
                    ShardReply::Ack(..) => unreachable!("acks are read before the next ship"),
                }
            }
        }
        Ok(self.free.pop().unwrap_or_default())
    }

    fn barrier(&mut self, epoch: u64, kind: BarrierKind) -> io::Result<()> {
        self.push(ShardCmd::Barrier { epoch, kind });
        Ok(())
    }

    fn ack(&mut self) -> io::Result<(u64, Option<Vec<u8>>)> {
        loop {
            match self.replies.recv() {
                Ok(ShardReply::Recycled(buffer)) => self.recycle(buffer),
                Ok(ShardReply::Ack(epoch, snapshot)) => return Ok((epoch, snapshot)),
                Err(mpsc::RecvError) => self.worker_died(),
            }
        }
    }
}

impl<U: StreamUpdate> Drop for RingLink<U> {
    fn drop(&mut self) {
        // Closing the ring is the shutdown signal: the worker drains what
        // is already queued, then exits — drop is a graceful drain, not an
        // abort.
        self.commands = None;
        if let Some(Err(payload)) = self.worker.take().map(JoinHandle::join) {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// The worker body: apply commands from the ring in order until the
/// coordinator closes it, acknowledging barriers and recycling buffers.
fn worker_loop<S, U>(
    ptr: ShardPtr<S>,
    mut commands: Consumer<ShardCmd<U>>,
    replies: mpsc::Sender<ShardReply<U>>,
) where
    S: UpdateSampler<U> + Snapshot + Send,
    U: StreamUpdate,
{
    while let Some(cmd) = commands.pop() {
        let reply = match cmd {
            ShardCmd::Ingest(mut chunk) => {
                // SAFETY: per `RingLink::start`'s contract this worker has
                // exclusive access to the pointee while commands are in
                // flight.
                unsafe { (*ptr.0).ingest_batch(&chunk) };
                chunk.clear();
                ShardReply::Recycled(chunk)
            }
            ShardCmd::Barrier { epoch, kind } => {
                // SAFETY: as above; `snapshot` only needs `&S`.
                ShardReply::Ack(
                    epoch,
                    publishes(kind).then(|| unsafe { (*ptr.0).snapshot() }),
                )
            }
        };
        let _ = replies.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::TrulyPerfectLpSampler;
    use std::time::Duration;
    use tps_streams::codec::Restore;
    use tps_streams::StreamSampler;

    fn samplers(k: usize, seed: u64) -> Vec<TrulyPerfectLpSampler> {
        (0..k as u64)
            .map(|j| TrulyPerfectLpSampler::new(2.0, 256, 0.1, seed ^ (j << 32)))
            .collect()
    }

    fn stream(len: usize) -> Vec<Item> {
        (0..len as u64)
            .map(|i| i.wrapping_mul(0x9E37) % 97)
            .collect()
    }

    fn links<S>(shards: &mut [S]) -> Vec<RingLink>
    where
        S: UpdateSampler<Item> + Snapshot + Send + 'static,
    {
        shards
            .iter_mut()
            .enumerate()
            // SAFETY: every caller drops the links before the shards.
            .map(|(j, s)| unsafe { RingLink::start(j, s as *mut S) })
            .collect()
    }

    /// An Lp shard whose batched path first sleeps 20 ms, so a burst of
    /// sends outruns its worker and fills its ring.
    struct SlowLp(TrulyPerfectLpSampler);

    impl StreamSampler for SlowLp {
        fn update(&mut self, item: Item) {
            self.0.update(item);
        }
        fn update_batch(&mut self, items: &[Item]) {
            std::thread::sleep(Duration::from_millis(20));
            self.0.update_batch(items);
        }
        fn sample(&mut self) -> tps_streams::SampleOutcome {
            self.0.sample()
        }
    }

    impl Snapshot for SlowLp {
        const TAG: u16 = TrulyPerfectLpSampler::TAG;
        fn encode_into(&self, w: &mut tps_streams::SnapshotWriter) {
            self.0.encode_into(w);
        }
    }

    /// Round-robin chunks through ring links ≡ the same chunks applied
    /// directly: the links add routing-free transport, nothing else — also
    /// when slow shards fill their rings and the sender has to block.
    #[test]
    fn ring_ingest_matches_direct_ingest() {
        let mut via_links: Vec<SlowLp> = samplers(3, 9).into_iter().map(SlowLp).collect();
        let mut direct = samplers(3, 9);
        let items = stream(30_000);
        let mut links = links(&mut via_links);
        // 20 chunks per shard against an 8-slot ring: the sender must park.
        let mut buffer = Vec::new();
        for (index, chunk) in items.chunks(500).enumerate() {
            buffer.extend_from_slice(chunk);
            buffer = links[index % 3].ship(buffer).unwrap();
            assert!(buffer.is_empty());
            direct[index % 3].update_batch(chunk);
        }
        assert_eq!(
            barrier_all(&mut links, 1, BarrierKind::Sync).unwrap().len(),
            0
        );
        let stats: Vec<RuntimeStats> = links.iter().map(RingLink::stats).collect();
        drop(links);
        assert!(
            stats.iter().any(|s| s.blocked > 0),
            "full-ring path never exercised"
        );
        assert_eq!(stats.iter().map(|s| s.chunks).sum::<u64>(), 60);
        for (a, b) in via_links.iter().zip(&direct) {
            assert_eq!(a.snapshot(), b.snapshot());
        }
    }

    /// The query barrier is a consistent cut: bytes equal each shard's own
    /// snapshot at exactly the pre-barrier prefix, and ingest enqueued
    /// after the barrier is excluded.
    #[test]
    fn snapshot_barrier_cuts_between_chunks() {
        let mut shards = samplers(2, 4);
        let mut reference = samplers(2, 4);
        let prefix = stream(8_000);
        let suffix: Vec<Item> = stream(8_000).into_iter().map(|x| x + 1).collect();
        let cut_bytes;
        {
            let mut links = links(&mut shards);
            for (j, half) in prefix.chunks(prefix.len() / 2).enumerate() {
                links[j].ship(half.to_vec()).unwrap();
            }
            cut_bytes = barrier_all(&mut links, 1, BarrierKind::Query).unwrap();
            for (j, half) in suffix.chunks(suffix.len() / 2).enumerate() {
                links[j].ship(half.to_vec()).unwrap();
            }
            barrier_all(&mut links, 2, BarrierKind::Sync).unwrap();
        }
        for (j, half) in prefix.chunks(prefix.len() / 2).enumerate() {
            reference[j].update_batch(half);
        }
        for (j, bytes) in cut_bytes.iter().enumerate() {
            assert_eq!(bytes, &reference[j].snapshot(), "shard {j} cut drifted");
            let restored = TrulyPerfectLpSampler::restore(bytes).unwrap();
            assert_eq!(restored.processed(), reference[j].processed());
        }
        // And the post-barrier suffix did land (drop = graceful drain).
        for (j, half) in suffix.chunks(suffix.len() / 2).enumerate() {
            reference[j].update_batch(half);
            assert_eq!(shards[j].snapshot(), reference[j].snapshot());
        }
    }

    #[test]
    fn worker_panic_surfaces_at_the_barrier() {
        struct Bomb;
        impl StreamSampler for Bomb {
            fn update(&mut self, _item: Item) {
                panic!("boom");
            }
            fn sample(&mut self) -> tps_streams::SampleOutcome {
                tps_streams::SampleOutcome::Empty
            }
        }
        impl Snapshot for Bomb {
            const TAG: u16 = 0xFFFF;
            fn encode_into(&self, w: &mut tps_streams::SnapshotWriter) {
                w.put_tag(Self::TAG);
            }
        }
        let result = std::panic::catch_unwind(|| {
            let mut shards = [Bomb];
            let mut links = links(&mut shards);
            links[0].ship(vec![1, 2, 3]).unwrap();
            let _ = barrier_all(&mut links, 1, BarrierKind::Sync);
        });
        let payload = result.expect_err("worker panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(message, "boom");
    }

    /// A scripted link: `ack` returns its one canned reply.
    struct Scripted(Option<(u64, Option<Vec<u8>>)>);

    impl ShardLink<Item> for Scripted {
        fn ship(&mut self, chunk: Vec<Item>) -> io::Result<Vec<Item>> {
            Ok(chunk)
        }
        fn barrier(&mut self, _epoch: u64, _kind: BarrierKind) -> io::Result<()> {
            Ok(())
        }
        fn ack(&mut self) -> io::Result<(u64, Option<Vec<u8>>)> {
            Ok(self.0.take().expect("one ack per barrier"))
        }
    }

    /// `barrier_all` returns the snapshots in shard order for a publishing
    /// kind and nothing for a flush; every ack that does not fit the
    /// barrier fails typed and names its shard: a query ack without a
    /// snapshot, a checkpoint ack with one, and an ack for another epoch.
    #[test]
    fn barrier_all_checks_every_ack() {
        use BarrierKind::{Checkpoint, CheckpointPublish, Query};
        let snap = |j: u8| (7, Some(vec![j]));
        let run = |kind, acks: [(u64, Option<Vec<u8>>); 3]| {
            barrier_all(&mut acks.map(|ack| Scripted(Some(ack))), 7, kind)
        };
        let cut = run(Query, [snap(0), snap(1), snap(2)]).unwrap();
        assert_eq!(cut, [vec![0], vec![1], vec![2]]);
        let flush = run(Checkpoint, [(7, None), (7, None), (7, None)]);
        assert_eq!(flush.unwrap().len(), 0);
        let epoch_6 = (6, Some(vec![0]));
        for (kind, acks, bad) in [
            (Query, [snap(0), (7, None), snap(2)], 1),
            (Checkpoint, [(7, None), (7, None), snap(2)], 2),
            (CheckpointPublish, [epoch_6, snap(1), snap(2)], 0),
        ] {
            let err = run(kind, acks).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kind:?}");
            let err = err.to_string();
            assert!(err.starts_with(&format!("shard {bad}:")), "{err}");
        }
    }
}
