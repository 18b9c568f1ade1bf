//! The persistent sharded runtime: long-lived worker threads behind
//! bounded SPSC command rings.
//!
//! PR 3's scatter-gather front-end ([`crate::sharded`]) paid two system
//! costs the samplers themselves never charge: every `update_batch` spawned
//! and joined `2k` scoped threads, and every query deep-cloned all `k`
//! shards before fold-merging (`O(total state)` on the query path, with
//! ingest stalled behind it). This module removes both:
//!
//! * **Persistent workers.** [`ShardPool::start`] pins each shard to one
//!   long-lived OS thread fed by a bounded SPSC ring
//!   ([`tps_streams::spsc`]) of coarse commands ([`ShardCmd`]): ingest
//!   chunks, epoch barriers, snapshot requests. Steady-state ingest pays a
//!   ring push per ~64k-item chunk instead of a spawn/join per batch.
//! * **Snapshot-isolated queries.** A snapshot barrier makes every worker
//!   emit its shard's PR-4 codec snapshot *in-band* — after everything
//!   enqueued before the barrier, before anything after it — so the `k`
//!   byte records form a consistent cut of the stream. The coordinator
//!   restores and fold-merges them off the ingest path; by the pinned
//!   restore-then-merge ≡ in-process-merge law the answer is byte-identical
//!   to merging live clones, but ingest only stalls for the (cheap,
//!   per-shard) serialisation, never for the merge.
//! * **Blocking flow control.** Each ring holds a fixed handful of
//!   chunks; when a shard's ring is full, [`ShardPool::send`] blocks the
//!   caller until that worker drains a slot. Every routed chunk is
//!   delivered — a truly perfect sampler must answer for the whole stream,
//!   not an admitted sub-stream — and coordinator memory stays bounded by
//!   the ring capacity times the chunk size per shard. Parking events are
//!   counted in [`RuntimeStats`] so front-ends can observe the pressure.
//!
//! ## Ownership and safety model
//!
//! The coordinator (e.g. [`crate::sharded::ShardedSampler`]) keeps owning
//! its shard states; the pool borrows them as raw pointers for the workers.
//! Exclusivity is protocol-enforced rather than type-enforced, which is why
//! [`ShardPool::start`] is `unsafe`:
//!
//! * between `start` and the pool's drop, worker `j` is the only code that
//!   dereferences shard `j`'s pointer — **except** when the coordinator has
//!   completed a barrier ([`ShardPool::flush`] / [`ShardPool::snapshot_all`])
//!   and has not yet sent another command; in that window every ring is
//!   empty and every worker is parked on its ring, so the coordinator may
//!   read (or, with `&mut` access, mutate) the shards directly;
//! * dropping the pool closes every ring, lets each worker drain what is
//!   already queued, and joins it — after which the shards are plain owned
//!   data again. A worker panic is re-raised on the coordinator thread at
//!   the next barrier (or at drop), never swallowed.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use tps_streams::codec::Snapshot;
use tps_streams::spsc::{self, Consumer, Producer, PushError};
use tps_streams::{Item, StreamUpdate, UpdateSampler};

/// Commands buffered per shard ring: enough in-flight chunks to ride out
/// scheduling hiccups, few enough that blocked-ingest memory stays bounded.
const RING_CAPACITY: usize = 8;

/// Pressure and throughput counters for a [`ShardPool`] (cumulative over
/// the pool's lifetime, summed across shards). Cheap to read — plain
/// coordinator-side integers, no atomics, no barrier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Chunks delivered to a shard ring.
    pub chunks: u64,
    /// Times an ingest call found a ring full and had to park.
    pub blocked: u64,
    /// Always 0: the pool never spills a chunk to a coordinator-side
    /// queue. Kept only so existing stats reports keep their field.
    pub spilled: u64,
    /// Snapshot barriers completed ([`ShardPool::snapshot_all`]) — each
    /// one is a consistent-cut query the pool served by serialising every
    /// shard in-band.
    pub snapshots: u64,
}

/// One command on a shard's ingest ring. Coarse by design: the ring is
/// crossed once per chunk, not once per update.
enum ShardCmd<U> {
    /// Feed a chunk of routed updates through the shard's batched ingest
    /// path. The buffer is recycled back to the coordinator once drained.
    Ingest(Vec<U>),
    /// Epoch barrier: acknowledge once everything enqueued earlier has been
    /// applied. With `snapshot` set, also emit the shard's sealed snapshot
    /// bytes at that point — the consistent-cut query mechanism.
    Barrier { epoch: u64, snapshot: bool },
}

/// Worker → coordinator responses (one shared `std::sync::mpsc` hub).
enum ShardReply<U> {
    /// A drained ingest buffer, cleared, for the coordinator to reuse.
    Recycled(Vec<U>),
    /// Barrier acknowledgement (with snapshot bytes if requested).
    Barrier {
        shard: usize,
        epoch: u64,
        snapshot: Option<Vec<u8>>,
    },
}

/// Sends a shard pointer into its worker thread. Safety is argued at the
/// single place these are created, [`ShardPool::start`].
struct ShardPtr<S>(*mut S);
unsafe impl<S: Send> Send for ShardPtr<S> {}

/// A pool of persistent shard workers (see the module docs).
///
/// Not generic over the sampler type: the type is erased into the worker
/// closures at [`ShardPool::start`], so coordinators can hold a `ShardPool`
/// without threading `S` through their own fields. It *is* generic over the
/// update type `U` moving through the rings — the sampler-family seam: the
/// same pool hosts insertion-only shards (`U = Item`, the default) and
/// turnstile shards (`U = SignedUpdate`) with identical transport,
/// flow-control and barrier machinery.
///
/// [`SignedUpdate`]: tps_streams::SignedUpdate
pub struct ShardPool<U: StreamUpdate = Item> {
    producers: Vec<Producer<ShardCmd<U>>>,
    handles: Vec<Option<JoinHandle<()>>>,
    replies: mpsc::Receiver<ShardReply<U>>,
    /// Cleared ingest buffers handed back by workers, reused by
    /// [`ShardPool::take_buffer`] so steady-state ingest allocates nothing.
    free: Vec<Vec<U>>,
    epoch: u64,
    stats: RuntimeStats,
}

/// How long a barrier wait sleeps between liveness checks of the workers.
const BARRIER_POLL: Duration = Duration::from_millis(100);

impl<U: StreamUpdate> ShardPool<U> {
    /// Spawns one persistent worker per pointer in `shards` and wires each
    /// to a bounded command ring of `RING_CAPACITY` slots.
    ///
    /// # Safety
    ///
    /// Every pointer must stay valid and un-aliased for the pool's whole
    /// lifetime: until this `ShardPool` is dropped, the pointee may only be
    /// accessed (a) by its worker thread, and (b) by the caller *between* a
    /// completed barrier ([`Self::flush`] / [`Self::snapshot_all`]) and the
    /// next command sent to that shard. In particular the allocation the
    /// pointers point into must not move or be freed while the pool is
    /// alive (the pool joins its workers on drop, so dropping the pool
    /// before the pointees is sufficient).
    pub unsafe fn start<S>(shards: &[*mut S]) -> Self
    where
        S: UpdateSampler<U> + Snapshot + Send + 'static,
    {
        assert!(!shards.is_empty(), "need at least one shard");
        let (reply_tx, replies) = mpsc::channel::<ShardReply<U>>();
        let mut producers = Vec::with_capacity(shards.len());
        let mut handles = Vec::with_capacity(shards.len());
        for (index, &shard) in shards.iter().enumerate() {
            let (tx, rx) = spsc::ring::<ShardCmd<U>>(RING_CAPACITY);
            let reply_tx = reply_tx.clone();
            let ptr = ShardPtr(shard);
            let handle = std::thread::Builder::new()
                .name(format!("tps-shard-{index}"))
                .spawn(move || worker_loop(ptr, rx, index, reply_tx))
                .expect("spawn shard worker");
            producers.push(tx);
            handles.push(Some(handle));
        }
        Self {
            free: Vec::new(),
            producers,
            handles,
            replies,
            epoch: 0,
            stats: RuntimeStats::default(),
        }
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.producers.len()
    }

    /// Cumulative pressure/throughput counters (see [`RuntimeStats`]).
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// A cleared, capacity-bearing ingest buffer — recycled from a worker
    /// when one is available, freshly allocated otherwise.
    pub fn take_buffer(&mut self) -> Vec<U> {
        if self.free.is_empty() {
            self.harvest_replies();
        }
        self.free.pop().unwrap_or_default()
    }

    /// Enqueues one routed chunk for `shard`, blocking while that shard's
    /// ring is full. Chunks reach each worker in send order.
    pub fn send(&mut self, shard: usize, chunk: Vec<U>) {
        if chunk.is_empty() {
            self.free.push(chunk);
            return;
        }
        // Fast path first so the parking events are observable.
        match self.producers[shard].try_push(ShardCmd::Ingest(chunk)) {
            Ok(()) => {}
            Err(PushError::Full(cmd)) => {
                self.stats.blocked += 1;
                if self.producers[shard].push(cmd).is_err() {
                    self.worker_died(shard);
                }
            }
            Err(PushError::Disconnected(_)) => self.worker_died(shard),
        }
        self.stats.chunks += 1;
    }

    /// Blocks until everything sent so far has been applied by every worker. On return all rings are empty and the
    /// coordinator may touch the shard states directly (see
    /// [`Self::start`]'s contract).
    pub fn flush(&mut self) {
        let _ = self.barrier(false);
    }

    /// Consistent-cut query: blocks until every worker has applied its
    /// pending ingest and emitted its shard's snapshot at that point.
    /// Returns the `k` sealed snapshot byte records in shard order.
    pub fn snapshot_all(&mut self) -> Vec<Vec<u8>> {
        self.barrier(true)
            .into_iter()
            .map(|bytes| bytes.expect("snapshot barrier returns bytes for every shard"))
            .collect()
    }

    fn barrier(&mut self, snapshot: bool) -> Vec<Option<Vec<u8>>> {
        self.epoch += 1;
        if snapshot {
            self.stats.snapshots += 1;
        }
        let epoch = self.epoch;
        for shard in 0..self.producers.len() {
            if self.producers[shard]
                .push(ShardCmd::Barrier { epoch, snapshot })
                .is_err()
            {
                self.worker_died(shard);
            }
        }
        let k = self.producers.len();
        let mut pending = k;
        let mut acked = vec![false; k];
        let mut out: Vec<Option<Vec<u8>>> = (0..k).map(|_| None).collect();
        while pending > 0 {
            match self.replies.recv_timeout(BARRIER_POLL) {
                Ok(ShardReply::Recycled(buffer)) => self.recycle(buffer),
                Ok(ShardReply::Barrier {
                    shard,
                    epoch: acked_epoch,
                    snapshot,
                }) => {
                    // Barriers are issued and awaited serially, so every
                    // ack we can see belongs to the current epoch.
                    debug_assert_eq!(acked_epoch, epoch, "barrier epochs must serialise");
                    debug_assert!(!acked[shard], "one ack per shard per barrier");
                    acked[shard] = true;
                    out[shard] = snapshot;
                    pending -= 1;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(dead) = (0..k).find(|&shard| {
                        !acked[shard]
                            && self.handles[shard]
                                .as_ref()
                                .is_some_and(JoinHandle::is_finished)
                    }) {
                        self.worker_died(dead);
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every worker holds a reply sender for its lifetime;
                    // all of them gone mid-barrier means they all died.
                    self.worker_died(0);
                }
            }
        }
        out
    }

    /// Drains any already-delivered replies without blocking (harvesting
    /// recycled buffers on the ingest path).
    fn harvest_replies(&mut self) {
        while let Ok(reply) = self.replies.try_recv() {
            match reply {
                ShardReply::Recycled(buffer) => self.recycle(buffer),
                ShardReply::Barrier { .. } => {
                    unreachable!("barrier acks are consumed by the issuing barrier")
                }
            }
        }
    }

    fn recycle(&mut self, buffer: Vec<U>) {
        // Bound the free list: beyond a few buffers per shard the extras
        // are dead capacity.
        if self.free.len() < 4 * self.producers.len() {
            self.free.push(buffer);
        }
    }

    /// A worker's ring disconnected or its thread finished early: the only
    /// cause is a panic in the shard's own update path. Join it and re-raise
    /// the payload on the coordinator thread.
    fn worker_died(&mut self, shard: usize) -> ! {
        if let Some(handle) = self.handles[shard].take() {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        panic!("shard worker {shard} exited before its pool shut down");
    }
}

impl<U: StreamUpdate> Drop for ShardPool<U> {
    fn drop(&mut self) {
        // Closing the rings (dropping the producers) is the shutdown
        // signal: each worker drains what is already queued, then exits —
        // drop is a graceful drain, not an abort.
        self.producers.clear();
        let mut worker_panic = None;
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            if let Err(payload) = handle.join() {
                worker_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = worker_panic {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl<U: StreamUpdate> std::fmt::Debug for ShardPool<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("num_shards", &self.num_shards())
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// The worker body: apply commands from the ring in order until the
/// coordinator closes it, acknowledging barriers and recycling buffers.
fn worker_loop<S, U>(
    ptr: ShardPtr<S>,
    mut commands: Consumer<ShardCmd<U>>,
    shard: usize,
    replies: mpsc::Sender<ShardReply<U>>,
) where
    S: UpdateSampler<U> + Snapshot + Send,
    U: StreamUpdate,
{
    while let Some(cmd) = commands.pop() {
        match cmd {
            ShardCmd::Ingest(mut chunk) => {
                // SAFETY: per `ShardPool::start`'s contract this worker has
                // exclusive access to the pointee while commands are in
                // flight.
                unsafe { (*ptr.0).ingest_batch(&chunk) };
                chunk.clear();
                let _ = replies.send(ShardReply::Recycled(chunk));
            }
            ShardCmd::Barrier { epoch, snapshot } => {
                // SAFETY: as above; `snapshot` only needs `&S`.
                let bytes = snapshot.then(|| unsafe { (*ptr.0).snapshot() });
                let _ = replies.send(ShardReply::Barrier {
                    shard,
                    epoch,
                    snapshot: bytes,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::TrulyPerfectLpSampler;
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

    /// Round-robin chunks through the pool ≡ the same chunks applied
    /// directly: the pool adds routing-free transport, nothing else — also
    /// when slow shards fill their rings and the sender has to block.
    #[test]
    fn pool_ingest_matches_direct_ingest() {
        let mut via_pool: Vec<SlowLp> = samplers(3, 9).into_iter().map(SlowLp).collect();
        let mut direct = samplers(3, 9);
        let items = stream(30_000);
        let stats = {
            let ptrs: Vec<*mut _> = via_pool.iter_mut().map(|s| s as *mut _).collect();
            let mut pool = unsafe { ShardPool::start(&ptrs) };
            // 20 chunks per shard against an 8-slot ring: the sender must park.
            for (index, chunk) in items.chunks(500).enumerate() {
                let shard = index % 3;
                let mut buffer = pool.take_buffer();
                buffer.extend_from_slice(chunk);
                pool.send(shard, buffer);
                direct[shard].update_batch(chunk);
            }
            pool.flush();
            pool.stats()
        };
        assert!(stats.blocked > 0, "full-ring path never exercised");
        assert_eq!(stats.chunks, 60);
        assert_eq!(stats.spilled, 0);
        for (a, b) in via_pool.iter().zip(&direct) {
            assert_eq!(a.snapshot(), b.snapshot());
        }
    }

    /// The snapshot barrier is a consistent cut: bytes equal each shard's
    /// own snapshot at exactly the pre-barrier prefix, and ingest enqueued
    /// after the barrier is excluded.
    #[test]
    fn snapshot_barrier_cuts_between_chunks() {
        let mut shards = samplers(2, 4);
        let mut reference = samplers(2, 4);
        let prefix = stream(8_000);
        let suffix: Vec<Item> = stream(8_000).into_iter().map(|x| x + 1).collect();
        let cut_bytes;
        {
            let ptrs: Vec<*mut _> = shards.iter_mut().map(|s| s as *mut _).collect();
            let mut pool = unsafe { ShardPool::start(&ptrs) };
            for (j, half) in prefix.chunks(prefix.len() / 2).enumerate() {
                pool.send(j, half.to_vec());
            }
            cut_bytes = pool.snapshot_all();
            for (j, half) in suffix.chunks(suffix.len() / 2).enumerate() {
                pool.send(j, half.to_vec());
            }
            pool.flush();
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
            let ptrs: Vec<*mut _> = shards.iter_mut().map(|s| s as *mut _).collect();
            let mut pool = unsafe { ShardPool::start(&ptrs) };
            pool.send(0, vec![1, 2, 3]);
            pool.flush();
        });
        let payload = result.expect_err("worker panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(message, "boom");
    }
}
