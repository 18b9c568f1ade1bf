//! The consistent-cut protocol, written once for threads and processes.
//!
//! A truly perfect sampler's answer at a query point must be exactly the
//! reference merge at that cut. Both stacks reach that cut the same way:
//! ship routed chunks to `k` shard owners, each a [`ShardLink`], then
//! [`barrier_all`], and fold the `k` shard states with
//! [`crate::sharded::fold_merge`]. The ingest service, whose shards live
//! in other processes, sends a [`BarrierKind::Query`] barrier: every owner
//! emits its shard's sealed snapshot *in-band* — after everything shipped
//! before the barrier, before anything after it — and the coordinator
//! restores the `k` records before it folds. In-process,
//! [`crate::sharded::ShardedSampler`] needs only a [`BarrierKind::Sync`]
//! barrier: the shard states are in its own memory, so once every worker
//! has acked it folds clones of them. The service implements the link
//! over a wire connection; this module's [`RingLink`] implements it with
//! one long-lived worker thread per shard, fed by a bounded
//! [`mpsc::sync_channel`] of `RING_CAPACITY` (two) slots for chunks and
//! barriers. A full channel blocks `ship` until the worker drains a slot,
//! so every routed chunk is delivered, memory stays bounded, and a barrier
//! never queues behind more than three chunks; [`RuntimeStats`] counts the
//! blocked sends. The service's wire links keep the same lead rule, in
//! the same constants: pieces of at most
//! [`RUNTIME_CHUNK`](crate::sharded::RUNTIME_CHUNK) updates, with at most
//! [`RING_CAPACITY`] earlier ones unacked when the next ships.
//!
//! ## Ownership
//!
//! The coordinator (e.g. [`crate::sharded::ShardedSampler`]) and a ring
//! link's worker share one shard state behind an `Arc<Mutex<S>>`. The
//! worker locks it only to apply a chunk or to snapshot it for a
//! publishing barrier, so a caller that holds a shard's guard can still
//! run a [`BarrierKind::Sync`] barrier across every link; only a chunk or
//! a publishing barrier for that shard waits for the guard.
//! Dropping the link closes the channel, lets the worker drain what is
//! already queued, and joins it. A worker that panics drops its reply
//! sender, so the next `ack` (or a `ship` into its closed channel) joins it
//! and re-raises the panic on the coordinator thread, as drop does.

use std::io;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use tps_streams::codec::Snapshot;
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
            (_, Some(bytes)) if kind.publishes() => {
                snapshots.push(bytes);
                continue;
            }
            (_, None) if !kind.publishes() => continue,
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

/// The lead rule every shard link keeps: before it ships a chunk, at most
/// this many earlier chunks are unapplied. A [`RingLink`] gets it from
/// its channel's slots; a service worker link reads `Sync` acks until at
/// most this many earlier pieces are unacked. Fixed, not a knob. After
/// `ship` returns, at most `RING_CAPACITY + 1` shipped chunks are
/// unapplied (the queued ones plus the one the worker holds). A
/// consistent query also ships each shard's staged remainder, less than
/// one more chunk, so its barrier waits for the worker to apply at most
/// those `RING_CAPACITY + 1` chunks plus the remainder: with
/// [`crate::sharded::RUNTIME_CHUNK`]'s 8Ki-item chunks, 24Ki shipped plus
/// fewer than 8Ki staged updates per shard, about 1.4 ms for an L2 worker
/// applying ~23 M updates/s. Two keep the next chunk ready while the
/// worker applies one; each extra one, or each doubling of the chunk,
/// adds to every consistent query's wait.
pub const RING_CAPACITY: usize = 2;

/// Pressure and throughput counters of the in-process runtime (cumulative
/// over the runtime's lifetime, summed across shards). Cheap to read —
/// plain coordinator-side integers, no atomics, no barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Chunks delivered to a shard link.
    pub chunks: u64,
    /// Times an ingest call found a link full and had to block.
    pub blocked: u64,
    /// Always 0: the runtime never spills a chunk to a coordinator-side
    /// queue. Kept only so existing stats reports keep their field.
    pub spilled: u64,
}

/// One command on a shard's channel. Coarse by design: the channel is
/// crossed once per chunk, not once per update.
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

/// The in-thread [`ShardLink`]: one persistent worker thread applying one
/// shard's commands from a bounded channel, with its own reply channel
/// (see the module docs). The sampler type is erased into the worker at
/// [`RingLink::start`]; `U` is the update type moving through the link.
/// Every barrier flushes; the publishing kinds also snapshot the shard. A
/// ring link has no durable store, so the checkpoint kinds write nothing.
pub struct RingLink<U: StreamUpdate = Item> {
    shard: usize,
    /// `None` only inside `drop`, which closes the channel by dropping it.
    commands: Option<mpsc::SyncSender<ShardCmd<U>>>,
    replies: mpsc::Receiver<ShardReply<U>>,
    worker: Option<JoinHandle<()>>,
    /// Cleared ingest buffers handed back by the worker, returned by
    /// `ship` so steady-state ingest allocates nothing.
    free: Vec<Vec<U>>,
    stats: RuntimeStats,
}

impl<U: StreamUpdate> RingLink<U> {
    /// Spawns the persistent worker for shard `shard`, which applies its
    /// commands to `state`, and wires it to a bounded channel of
    /// `RING_CAPACITY` slots.
    pub fn start<S>(shard: usize, state: Arc<Mutex<S>>) -> Self
    where
        S: UpdateSampler<U> + Snapshot + Send + 'static,
    {
        let (commands, inbox) = mpsc::sync_channel(RING_CAPACITY);
        let (reply_tx, replies) = mpsc::channel();
        let worker = std::thread::Builder::new()
            .name(format!("tps-shard-{shard}"))
            .spawn(move || worker_loop(&state, inbox, reply_tx))
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

    /// The cleared chunk buffers this link holds for reuse.
    pub(crate) fn free_buffers(&self) -> &[Vec<U>] {
        &self.free
    }

    /// Enqueues `cmd`, blocking while the channel is full; `true` when it
    /// had to block.
    fn push(&mut self, cmd: ShardCmd<U>) -> bool {
        let commands = self.commands.as_ref().expect("channel open until drop");
        // Fast path first so the blocking events are observable.
        match commands.try_send(cmd) {
            Ok(()) => false,
            Err(mpsc::TrySendError::Full(cmd)) => {
                if commands.send(cmd).is_err() {
                    self.worker_died();
                }
                true
            }
            Err(mpsc::TrySendError::Disconnected(_)) => self.worker_died(),
        }
    }

    fn recycle(&mut self, buffer: Vec<U>) {
        // Bound the free list by the buffers that can be in use at once:
        // one per channel slot, the worker's in-hand chunk, and the caller's
        // staging buffer. Any more would be dead capacity.
        if self.free.len() < RING_CAPACITY + 2 {
            self.free.push(buffer);
        }
    }

    /// The worker's channel closed or its reply channel hung up before the
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
        // Closing the channel is the shutdown signal: the worker drains
        // what is already queued, then exits — drop is a graceful drain,
        // not an abort.
        self.commands = None;
        if let Some(Err(payload)) = self.worker.take().map(JoinHandle::join) {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// The worker body: apply commands from the channel in order until the
/// coordinator closes it, acknowledging barriers and recycling buffers.
/// The shard is locked only for the commands that touch it.
fn worker_loop<S, U>(
    state: &Mutex<S>,
    commands: mpsc::Receiver<ShardCmd<U>>,
    replies: mpsc::Sender<ShardReply<U>>,
) where
    S: UpdateSampler<U> + Snapshot + Send,
    U: StreamUpdate,
{
    let lock = || state.lock().expect("shard lock poisoned");
    while let Ok(cmd) = commands.recv() {
        let reply = match cmd {
            ShardCmd::Ingest(mut chunk) => {
                lock().ingest_batch(&chunk);
                chunk.clear();
                ShardReply::Recycled(chunk)
            }
            ShardCmd::Barrier { epoch, kind } => {
                ShardReply::Ack(epoch, kind.publishes().then(|| lock().snapshot()))
            }
        };
        let _ = replies.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::TrulyPerfectLpSampler;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
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

    /// Shares each shard behind a mutex and starts one ring link on it.
    fn links<S>(shards: impl IntoIterator<Item = S>) -> (Vec<Arc<Mutex<S>>>, Vec<RingLink>)
    where
        S: UpdateSampler<Item> + Snapshot + Send + 'static,
    {
        let shards: Vec<_> = shards.into_iter().map(Mutex::new).map(Arc::new).collect();
        let links = (0..shards.len())
            .map(|j| RingLink::start(j, Arc::clone(&shards[j])))
            .collect();
        (shards, links)
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
        let (via_links, mut links) = links(samplers(3, 9).into_iter().map(SlowLp));
        let mut direct = samplers(3, 9);
        let items = stream(30_000);
        // 20 chunks per shard against a `RING_CAPACITY`-slot ring: the
        // sender must park.
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
            assert_eq!(a.lock().unwrap().snapshot(), b.snapshot());
        }
    }

    /// An Lp shard that applies a chunk only when granted a permit, and
    /// counts the chunks it has applied.
    struct GatedLp {
        inner: TrulyPerfectLpSampler,
        permits: mpsc::Receiver<()>,
        applied: Arc<AtomicU64>,
    }

    impl StreamSampler for GatedLp {
        fn update(&mut self, item: Item) {
            self.inner.update(item);
        }
        fn update_batch(&mut self, items: &[Item]) {
            // A hung-up grant (the test failed) releases the worker.
            let _ = self.permits.recv();
            self.inner.update_batch(items);
            self.applied.fetch_add(1, Ordering::SeqCst);
        }
        fn sample(&mut self) -> tps_streams::SampleOutcome {
            self.inner.sample()
        }
    }

    impl Snapshot for GatedLp {
        const TAG: u16 = TrulyPerfectLpSampler::TAG;
        fn encode_into(&self, w: &mut tps_streams::SnapshotWriter) {
            self.inner.encode_into(w);
        }
    }

    /// The lead bound a consistent query waits behind: once `ship`
    /// returns, at most `RING_CAPACITY + 1` shipped chunks are unapplied
    /// (the ring's slots plus the worker's in-hand chunk). A stalled worker
    /// lets the sender reach the bound exactly; past it, one permit per
    /// ship lets the worker apply at most `shipped - bound` chunks, so the
    /// lead must sit exactly at the bound.
    #[test]
    fn ship_lead_stays_within_ring_capacity_plus_one() {
        let bound = RING_CAPACITY as u64 + 1;
        let applied = Arc::new(AtomicU64::new(0));
        let (grant, permits) = mpsc::channel();
        let (_shards, mut links) = links([GatedLp {
            inner: samplers(1, 6).remove(0),
            permits,
            applied: Arc::clone(&applied),
        }]);
        // Declared after the links, so a failing assertion drops the grant
        // (releasing the worker) before the links join it.
        let grant = grant;
        let chunks = bound + 4;
        for shipped in 1..=chunks {
            // No permit until the bound is reached, then one per ship: the
            // worker never applies more than `shipped - bound` chunks.
            if shipped > bound {
                grant.send(()).unwrap();
            }
            links[0].ship(vec![shipped; 64]).unwrap();
            let lead = shipped - applied.load(Ordering::SeqCst);
            assert_eq!(lead, shipped.min(bound), "unapplied after ship {shipped}");
        }
        for _ in 0..bound {
            grant.send(()).unwrap();
        }
        barrier_all(&mut links, 1, BarrierKind::Sync).unwrap();
        assert_eq!(applied.load(Ordering::SeqCst), chunks);
    }

    /// The query barrier is a consistent cut: bytes equal each shard's own
    /// snapshot at exactly the pre-barrier prefix, and ingest enqueued
    /// after the barrier is excluded.
    #[test]
    fn snapshot_barrier_cuts_between_chunks() {
        let (shards, mut links) = links(samplers(2, 4));
        let mut reference = samplers(2, 4);
        let prefix = stream(8_000);
        let suffix: Vec<Item> = stream(8_000).into_iter().map(|x| x + 1).collect();
        for (j, half) in prefix.chunks(prefix.len() / 2).enumerate() {
            links[j].ship(half.to_vec()).unwrap();
        }
        let cut_bytes = barrier_all(&mut links, 1, BarrierKind::Query).unwrap();
        for (j, half) in suffix.chunks(suffix.len() / 2).enumerate() {
            links[j].ship(half.to_vec()).unwrap();
        }
        barrier_all(&mut links, 2, BarrierKind::Sync).unwrap();
        drop(links);
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
            let shard = shards[j].lock().unwrap();
            assert_eq!(shard.snapshot(), reference[j].snapshot());
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
        let payload_of = |result: std::thread::Result<()>| {
            let payload = result.expect_err("worker panic must propagate");
            let message = payload.downcast_ref::<&str>().copied();
            message.unwrap_or("<non-str payload>").to_owned()
        };
        // The barrier's ack finds the reply channel hung up.
        let result = std::panic::catch_unwind(|| {
            let (_shards, mut links) = links([Bomb]);
            links[0].ship(vec![1, 2, 3]).unwrap();
            let _ = barrier_all(&mut links, 1, BarrierKind::Sync);
        });
        assert_eq!(payload_of(result), "boom");
        // Shipping on finds the command channel closed once the worker has
        // unwound, and re-raises the worker's own payload.
        let result = std::panic::catch_unwind(|| {
            let (_shards, mut links) = links([Bomb]);
            loop {
                links[0].ship(vec![1]).unwrap();
            }
        });
        assert_eq!(payload_of(result), "boom");
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
