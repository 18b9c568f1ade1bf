//! Scatter-gather sharding: parallel ingest across `k` sampler shards with
//! query-time merging.
//!
//! The samplers in this workspace are one-pass and oblivious to how the
//! stream is partitioned, so the single-core ingest ceiling is not a system
//! ceiling: [`ShardedSampler`] routes updates across `k` independent shard
//! instances, feeds each shard's amortised batch path through one
//! [`RingLink`] per shard (a long-lived thread behind a bounded SPSC ring —
//! no per-batch spawn/join), and answers queries from snapshot-isolated
//! cuts folded by [`fold_merge`].
//!
//! ## Routing and exactness
//!
//! * [`ShardingStrategy::Hash`] (the default) routes every occurrence of an
//!   item to the same shard. Merged suffix counts are then exact, so the
//!   sharded sampler is **distributionally equivalent** to a single
//!   instance over the interleaved stream for *every* measure `G` (and for
//!   the `F_0` sampler, whose shards must share one seed so their pre-drawn
//!   subsets coincide — see `TrulyPerfectF0Sampler`'s merge docs).
//! * [`ShardingStrategy::RoundRobin`] balances load perfectly regardless of
//!   skew but splits an item's occurrences across shards; it is exact for
//!   constant-increment measures (`L_1`, where acceptance ignores suffix
//!   counts) and an approximation otherwise.
//!
//! ## Query semantics (snapshot isolation)
//!
//! While the runtime is live, [`StreamSampler::sample`] no longer clones
//! live shards. It runs a query barrier ([`barrier_all`]): each worker
//! emits its shard's codec snapshot in-band, so the `k` records form a
//! consistent cut (everything ingested before the query, nothing after).
//! The coordinator restores and fold-merges the records off the ingest
//! path; by the pinned restore-then-merge ≡ in-process-merge law the result
//! is byte-identical to the old clone-and-merge, but workers resume
//! ingesting as soon as their (cheap) serialisation is done instead of
//! stalling behind an `O(total state)` merge.
//!
//! On top of that, [`ShardedSampler::query`] is the typed front door over
//! [`ShardedSampler::merged`]: a
//! [`QueryOptions::consistent`] request forces the fresh fold-merge
//! above, while [`QueryOptions::cached`] reuses the last consistent
//! fold-merge when it is within the caller's staleness bound — no
//! barrier, no merge, no waiting on ingest. Staleness is measured in
//! in-process *epochs* (one per ingest call); cache hits and misses are
//! counted in [`QueryCacheStats`].
//!
//! ## Construction and configuration
//!
//! The front door is [`ShardedSampler::builder`]: shard count, routing
//! strategy, seed and parallel cutoff as named setters, then
//! [`ShardedSamplerBuilder::build`] with the per-shard factory. Flow
//! control is not a knob: when a shard's ring fills, ingest blocks until
//! that worker drains a slot, so every routed update is applied and
//! coordinator memory stays bounded. [`ShardedSampler::runtime_stats`]
//! counts how often ingest had to block.

use std::cell::UnsafeCell;
use std::io;
use std::sync::Mutex;

use crate::runtime::{barrier_all, RingLink, RuntimeStats, ShardLink};
use tps_random::{StreamRng, Xoshiro256};
use tps_streams::codec::{self, CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
use tps_streams::wire::BarrierKind;
use tps_streams::{
    Item, MergeableSampler, QueryOptions, QuerySnapshot, SampleOutcome, SignedUpdate, SpaceUsage,
    StreamSampler, StreamUpdate, TurnstileSampler, UpdateSampler,
};

/// How [`ShardedSampler`] routes updates to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardingStrategy {
    /// Route by a fixed hash of the item: all occurrences of an item land
    /// on one shard, making merged suffix counts — and therefore the merged
    /// output distribution — exact for every measure.
    Hash,
    /// Route cyclically: perfect load balance under any skew, exact for
    /// constant-increment measures only.
    RoundRobin,
}

/// The splitmix64 finalizer: the same mixer the workspace's internal maps
/// hash with, used here to assign items to shards.
#[inline]
fn mix(item: Item) -> u64 {
    let mut z = item.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a mixed hash onto `[0, shards)` with Lemire's multiply-shift range
/// reduction — one widening multiply instead of the 64-bit division a `%`
/// would cost per scattered item.
#[inline]
fn route(hash: u64, shards: usize) -> usize {
    (((hash as u128) * (shards as u128)) >> 64) as usize
}

/// The shard index an item lands on under [`ShardingStrategy::Hash`] with
/// `shards` shards — the routing function itself, exposed so *external*
/// partitioners (e.g. a multi-process ingest service splitting one stream
/// across worker processes) route exactly like an in-process
/// [`ShardedSampler`] and the merged answers line up byte for byte.
#[inline]
pub fn hash_route(item: Item, shards: usize) -> usize {
    route(mix(item), shards)
}

/// Salt XORed into the builder seed to derive the query-time merge RNG.
/// Public for the same reason as [`hash_route`]: an external coordinator
/// that restores per-shard snapshots and passes them to [`fold_merge`]
/// with coins from `Xoshiro256::seed_from_u64(seed ^ MERGE_SEED_SALT)`
/// reproduces an in-process [`ShardedSampler`]'s first merged query byte
/// for byte.
pub const MERGE_SEED_SALT: u64 = 0x5AAD_ED00;

/// Folds shard states, in shard order with the caller's merge coins, into
/// one sampler for their combined stream — the one fold behind every
/// sharded answer, in-process or restored from a service cut. A state
/// that cannot merge into those before it fails as
/// [`io::ErrorKind::InvalidData`] naming its shard.
///
/// # Panics
///
/// Panics if `shards` is empty.
pub fn fold_merge<S: MergeableSampler>(
    shards: impl IntoIterator<Item = S>,
    rng: &mut dyn StreamRng,
) -> io::Result<S> {
    let mut shards = shards.into_iter();
    let mut merged = shards.next().expect("at least one shard");
    for (shard, next) in (1..).zip(shards) {
        if !merged.merge_compatible(&next) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard {shard} is not merge-compatible with the shards before it"),
            ));
        }
        merged = merged.merge(next, rng);
    }
    Ok(merged)
}

/// Batches smaller than this many items *per shard* are scattered and
/// drained on the calling thread while the runtime is not yet live: below
/// it, the routed work is too small to be worth waking `k` workers for.
/// The sequential path is chunking-equivalent to the runtime one (same
/// routing, same per-shard order), so the cutoff is invisible to sampler
/// semantics. Once the first large batch has started the runtime, all
/// subsequent updates flow through it.
const PARALLEL_MIN_PER_SHARD: usize = 4_096;

/// Items staged per shard before a chunk is shipped to the shard's ring.
/// Coarse enough that ring crossings and reply traffic are amortised away,
/// fine enough that a batch pipelines across workers instead of arriving
/// as one monolith per shard.
const RUNTIME_CHUNK: usize = 32 * 1024;

/// Named-setter construction for [`ShardedSampler`] — the front door that
/// replaced the positional-argument constructor.
///
/// Every knob has a sensible default; only the shard count is mandatory:
///
/// ```
/// use tps_core::sharded::{ShardedSamplerBuilder, ShardingStrategy};
/// use tps_core::lp::TrulyPerfectLpSampler;
///
/// let sampler = ShardedSamplerBuilder::new(4)
///     .strategy(ShardingStrategy::Hash)
///     .seed(42)
///     .build(|shard| TrulyPerfectLpSampler::new(2.0, 512, 0.1, 42 ^ ((shard as u64) << 32)));
/// assert_eq!(sampler.shard_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedSamplerBuilder {
    shards: usize,
    strategy: ShardingStrategy,
    seed: u64,
    parallel_cutoff: usize,
}

impl ShardedSamplerBuilder {
    /// Starts a builder for `shards` shard instances. Defaults:
    /// [`ShardingStrategy::Hash`], seed `0` and a 4096-item-per-shard
    /// parallel cutoff.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self {
            shards,
            strategy: ShardingStrategy::Hash,
            seed: 0,
            parallel_cutoff: PARALLEL_MIN_PER_SHARD,
        }
    }

    /// Routing strategy (see [`ShardingStrategy`] for the exactness
    /// trade-off).
    pub fn strategy(mut self, strategy: ShardingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Seed for the query-time merge coins. Shard seeding stays with the
    /// factory passed to [`Self::build`], which decides whether shards draw
    /// independently (reservoirs) or share a seed (`F_0`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-shard batch size below which (pre-runtime) batches are scattered
    /// and drained on the calling thread instead of waking the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `items_per_shard == 0`.
    pub fn parallel_cutoff(mut self, items_per_shard: usize) -> Self {
        assert!(items_per_shard > 0, "parallel cutoff must be positive");
        self.parallel_cutoff = items_per_shard;
        self
    }

    /// Builds an insertion-only sampler, creating shard `idx` as
    /// `factory(idx)`. The factory decides seeding: independent seeds for
    /// the reservoir samplers; one shared seed for `F_0` shards (their
    /// merge requires identical pre-drawn subsets).
    pub fn build<S>(self, factory: impl FnMut(usize) -> S) -> ShardedSampler<S>
    where
        S: MergeableSampler + UpdateSampler<Item> + Clone + Send + Snapshot + Restore + 'static,
    {
        self.assemble(factory)
    }

    /// Builds a sharded *turnstile* sampler over shards that consume
    /// [`SignedUpdate`]s — same routing, staging, runtime and fold-merge
    /// plumbing as [`Self::build`], instantiated for the strict-turnstile
    /// update type. The factory must give every shard the same seed when
    /// the shard type's merge law requires identical pre-drawn structure
    /// (as `StrictTurnstileF0Sampler`'s does).
    pub fn build_turnstile<S>(
        self,
        factory: impl FnMut(usize) -> S,
    ) -> ShardedSampler<S, SignedUpdate>
    where
        S: MergeableSampler
            + UpdateSampler<SignedUpdate>
            + Clone
            + Send
            + Snapshot
            + Restore
            + 'static,
    {
        self.assemble(factory)
    }

    /// The update-type-generic constructor both `build` flavours share.
    fn assemble<S, U: StreamUpdate>(
        self,
        mut factory: impl FnMut(usize) -> S,
    ) -> ShardedSampler<S, U> {
        ShardedSampler {
            runtime: None,
            shards: (0..self.shards)
                .map(|idx| UnsafeCell::new(factory(idx)))
                .collect(),
            strategy: self.strategy,
            cursor: 0,
            scratch: Vec::new(),
            rng: Xoshiro256::seed_from_u64(self.seed ^ MERGE_SEED_SALT),
            processed: 0,
            parallel_cutoff: self.parallel_cutoff,
            epoch: 0,
            cache: None,
            cache_stats: QueryCacheStats::default(),
        }
    }
}

/// Hit/miss counters for [`ShardedSampler::query`]'s cached mode —
/// [`RuntimeStats`]-style plain integers, cheap to read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Cached queries answered from the last consistent fold-merge.
    pub hits: u64,
    /// Queries that forced a fresh fold-merge: every consistent request,
    /// plus cached requests whose staleness bound the cache could not
    /// satisfy.
    pub misses: u64,
}

/// The last consistent fold-merge, kept for cached queries. Transient:
/// never serialised, dropped on clone.
struct MergedCache<S> {
    epoch: u64,
    cut: u64,
    value: S,
}

/// The live half of the runtime: one ring link per shard plus the
/// per-shard staging buffers of routed-but-unshipped items. Boxed behind a
/// `Mutex` so `&self` accessors can quiesce (ship + flush) through
/// interior mutability while `ShardedSampler` stays `Send`.
struct RuntimeState<U: StreamUpdate> {
    links: Vec<RingLink<U>>,
    staging: Vec<Vec<U>>,
    /// The last barrier epoch sent on the links.
    epoch: u64,
    /// Query barriers completed (reported as [`RuntimeStats::snapshots`]).
    snapshots: u64,
}

impl<U: StreamUpdate> RuntimeState<U> {
    /// Ships every non-empty staging buffer (staged items were routed
    /// after everything already shipped), then runs one barrier of `kind`
    /// across every shard: a flush (`Sync`) or a consistent-cut query
    /// (`Query`, which returns the shards' snapshots in shard order).
    fn barrier(&mut self, kind: BarrierKind) -> Vec<Vec<u8>> {
        for (link, buffer) in self.links.iter_mut().zip(&mut self.staging) {
            if !buffer.is_empty() {
                *buffer = link.ship(std::mem::take(buffer)).expect("rings never err");
            }
        }
        self.epoch += 1;
        if kind == BarrierKind::Query {
            self.snapshots += 1;
        }
        barrier_all(&mut self.links, self.epoch, kind)
            .unwrap_or_else(|e| panic!("in-process barrier failed: {e}"))
    }

    fn stats(&self) -> RuntimeStats {
        let mut total = RuntimeStats {
            snapshots: self.snapshots,
            ..RuntimeStats::default()
        };
        for link in &self.links {
            total.chunks += link.stats().chunks;
            total.blocked += link.stats().blocked;
        }
        total
    }
}

/// A scatter-gather front-end over `k` shard instances of a mergeable
/// sampler (see the module docs).
///
/// Generic over the update type `U`: `ShardedSampler<S>` (the default,
/// `U = Item`) hosts insertion-only shards and implements
/// [`StreamSampler`]; `ShardedSampler<S, SignedUpdate>` (built with
/// [`ShardedSamplerBuilder::build_turnstile`]) hosts strict-turnstile
/// shards and implements [`TurnstileSampler`]. The routing, staging,
/// worker-pool and fold-merge plumbing is written once against
/// [`StreamUpdate`]/[`UpdateSampler`] and shared by both instantiations.
pub struct ShardedSampler<S, U: StreamUpdate = Item> {
    /// Declared first so drop order joins the workers *before* the shard
    /// states they point into are dropped.
    runtime: Option<Mutex<RuntimeState<U>>>,
    /// Owned shard states. `UnsafeCell` because, while the runtime is
    /// live, worker `j` mutates shard `j` through a raw pointer; the
    /// coordinator only touches a shard after a completed barrier (see
    /// [`RingLink::start`]'s contract). Boxed slice: the
    /// allocation must never move while workers hold pointers into it.
    shards: Box<[UnsafeCell<S>]>,
    strategy: ShardingStrategy,
    /// Round-robin cursor: the shard the next update is routed to.
    cursor: usize,
    /// Transient per-shard scatter buffers for the sequential (pre-runtime)
    /// batch path; never holds data across calls and never serialised.
    scratch: Vec<Vec<U>>,
    /// Coins for the query-time merge draws.
    rng: Xoshiro256,
    processed: u64,
    /// Per-shard batch size below which (pre-runtime) batches take the
    /// sequential path. Serialised since format v2.
    parallel_cutoff: usize,
    /// Ingest generation counter (one per [`Self::ingest`] /
    /// [`Self::ingest_batch`] call): the staleness clock of the query
    /// cache. Transient — never serialised, so a restored sampler starts
    /// at epoch 0 just like it starts with a cold runtime.
    epoch: u64,
    /// The last consistent fold-merge, reused by cached queries.
    /// Transient for the same reason as the runtime: operational state,
    /// not logical state.
    cache: Option<MergedCache<S>>,
    /// Hit/miss counters for the query cache. Transient.
    cache_stats: QueryCacheStats,
}

// `UnsafeCell` suppresses auto-`Send`; shipping the whole front-end to
// another thread is still fine: the boxed slice's allocation (which the
// workers point into) does not move, and `&mut`/owned access to the
// coordinator half is unique by construction.
unsafe impl<S: Send, U: StreamUpdate> Send for ShardedSampler<S, U> {}

impl<S, U> ShardedSampler<S, U>
where
    S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
    U: StreamUpdate,
{
    /// Starts configuring a sharded sampler over `shards` shard instances
    /// (see [`ShardedSamplerBuilder`] for the knobs and their defaults).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn builder(shards: usize) -> ShardedSamplerBuilder {
        ShardedSamplerBuilder::new(shards)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of updates processed across all shards (counted at routing
    /// time, so it includes staged and in-flight items).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The routing strategy.
    pub fn strategy(&self) -> ShardingStrategy {
        self.strategy
    }

    /// Whether the persistent worker pool is live.
    pub fn runtime_active(&self) -> bool {
        self.runtime.is_some()
    }

    /// The per-shard parallel cutoff (items per shard below which a
    /// pre-runtime batch stays on the calling thread).
    pub fn parallel_cutoff(&self) -> usize {
        self.parallel_cutoff
    }

    /// Cumulative pressure/throughput counters of the live runtime —
    /// chunks delivered and ingest calls that blocked (see
    /// [`RuntimeStats`]). All zeros while the worker pool has not
    /// started; reset when it restarts (clone, restore).
    pub fn runtime_stats(&self) -> RuntimeStats {
        match &self.runtime {
            Some(runtime) => runtime.lock().unwrap().stats(),
            None => RuntimeStats::default(),
        }
    }

    /// Blocks until every routed update has been applied to its shard
    /// (no-op while the runtime is not live). After `flush` returns, reads
    /// through [`Self::shard`] observe the complete stream so far.
    pub fn flush(&mut self) {
        self.quiesce();
    }

    /// Read access to one shard (diagnostics and tests). Quiesces the
    /// runtime first, so the view includes every update routed so far.
    pub fn shard(&self, idx: usize) -> &S {
        self.quiesce();
        // SAFETY: after `quiesce` all rings are empty and every worker is
        // parked; the returned shared borrow keeps `&self` alive, and all
        // command-issuing methods require `&mut self`.
        unsafe { &*self.shards[idx].get() }
    }

    /// The shard index an item is routed to under [`ShardingStrategy::Hash`].
    #[inline]
    pub fn hash_shard_of(&self, item: Item) -> usize {
        route(mix(item), self.shards.len())
    }

    /// Ships staged chunks and waits for every worker to go idle. After
    /// this returns (and until the next command is sent), the coordinator
    /// may access shard states directly.
    fn quiesce(&self) {
        if let Some(runtime) = &self.runtime {
            runtime.lock().unwrap().barrier(BarrierKind::Sync);
        }
    }

    /// Direct mutable access to one shard; only sound while the runtime is
    /// not live or fully quiesced.
    fn shard_mut(&mut self, idx: usize) -> &mut S {
        debug_assert!(self.runtime.is_none(), "direct access requires no runtime");
        self.shards[idx].get_mut()
    }

    /// Starts one ring link per shard over the current shard states.
    fn start_runtime(&mut self) {
        debug_assert!(self.runtime.is_none());
        let links = self
            .shards
            .iter()
            .enumerate()
            // SAFETY: the pointers target the boxed slice owned by `self`,
            // which is never resized and outlives the links (`runtime` is
            // declared before `shards`, so the links join their workers
            // first on drop; `Self` is only movable as a whole, which does
            // not move the boxed allocation). Coordinator-side access to the
            // pointees only happens behind `quiesce()` barriers, per the
            // contract.
            .map(|(shard, cell)| unsafe { RingLink::start(shard, cell.get()) })
            .collect();
        self.runtime = Some(Mutex::new(RuntimeState {
            links,
            staging: vec![Vec::new(); self.shards.len()],
            epoch: 0,
            snapshots: 0,
        }));
    }

    /// Routes `updates` into the live runtime's staging buffers, shipping
    /// each buffer as it reaches [`RUNTIME_CHUNK`]. Per-shard update order
    /// is exactly the loop order, so the engines' batch ≡ loop law carries
    /// over chunk boundaries unchanged.
    fn scatter_to_runtime(&mut self, updates: &[U]) {
        let k = self.shards.len();
        let strategy = self.strategy;
        let mut cursor = self.cursor;
        let state = self
            .runtime
            .as_mut()
            .expect("runtime is live")
            .get_mut()
            .unwrap();
        for &update in updates {
            let shard = match strategy {
                ShardingStrategy::Hash => route(mix(update.route_key()), k),
                ShardingStrategy::RoundRobin => {
                    let shard = cursor;
                    cursor += 1;
                    if cursor == k {
                        cursor = 0;
                    }
                    shard
                }
            };
            let buffer = &mut state.staging[shard];
            buffer.push(update);
            if buffer.len() >= RUNTIME_CHUNK {
                let chunk = std::mem::take(buffer);
                *buffer = state.links[shard].ship(chunk).expect("rings never err");
            }
        }
        self.cursor = cursor;
    }

    /// Routes one update to its shard — the kind-generic ingest surface
    /// both stream-model trait impls (and generic callers like the ingest
    /// service's reference run) delegate to.
    pub fn ingest(&mut self, update: U) {
        self.processed += 1;
        self.epoch += 1;
        if self.runtime.is_some() {
            self.scatter_to_runtime(std::slice::from_ref(&update));
            return;
        }
        let shard = match self.strategy {
            ShardingStrategy::Hash => route(mix(update.route_key()), self.shards.len()),
            ShardingStrategy::RoundRobin => {
                let shard = self.cursor;
                self.cursor = (self.cursor + 1) % self.shards.len();
                shard
            }
        };
        self.shard_mut(shard).ingest(update);
    }

    /// Routes a batch of updates: scatter, then either ship to the runtime
    /// or drain sequentially (see the `update_batch` docs on the
    /// [`StreamSampler`] impl). Kind-generic twin of [`Self::ingest`].
    pub fn ingest_batch(&mut self, updates: &[U]) {
        self.processed += updates.len() as u64;
        if updates.is_empty() {
            return;
        }
        self.epoch += 1;
        let k = self.shards.len();
        if k == 1 {
            self.shard_mut(0).ingest_batch(updates);
            return;
        }
        if self.runtime.is_none() && updates.len() >= k * self.parallel_cutoff {
            self.start_runtime();
        }
        if self.runtime.is_some() {
            self.scatter_to_runtime(updates);
            return;
        }
        // Sequential small-batch path: scatter on the calling thread, then
        // drain each shard's sub-batch in stream order. The scratch matrix
        // is transient state, sized lazily so restoring a snapshot never
        // allocates it up front.
        if self.scratch.len() != k {
            self.scratch = vec![Vec::new(); k];
        }
        for buffer in &mut self.scratch {
            buffer.clear();
        }
        let cursor = self.cursor;
        scatter_chunk(updates, &mut self.scratch, self.strategy, cursor);
        if self.strategy == ShardingStrategy::RoundRobin {
            self.cursor = (cursor + updates.len()) % k;
        }
        let scratch = std::mem::take(&mut self.scratch);
        for (shard, buffer) in scratch.iter().enumerate() {
            if !buffer.is_empty() {
                self.shard_mut(shard).ingest_batch(buffer);
            }
        }
        self.scratch = scratch;
    }

    /// Builds a merged sampler answering for the combined stream of all
    /// shards. While the runtime is live this restores the workers'
    /// consistent-cut snapshots and fold-merges those (the shards keep
    /// ingesting in the meantime); otherwise it fold-merges clones. The two
    /// paths agree byte-for-byte by the restore-then-merge ≡
    /// in-process-merge law. Merge coins come from the front-end's own RNG,
    /// so repeated queries draw independent merged states.
    pub fn merged(&mut self) -> S {
        let merged = match &mut self.runtime {
            Some(runtime) => {
                let records = runtime.get_mut().unwrap().barrier(BarrierKind::Query);
                let restore =
                    |bytes: &Vec<u8>| S::restore(bytes).expect("worker snapshots restore");
                fold_merge(records.iter().map(restore), &mut self.rng)
            }
            None => {
                // SAFETY: no runtime is live, so no worker touches a shard.
                let clone = |cell: &UnsafeCell<S>| unsafe { &*cell.get() }.clone();
                fold_merge(self.shards.iter().map(clone), &mut self.rng)
            }
        };
        merged.unwrap_or_else(|e| panic!("{e}"))
    }

    /// The ingest generation this sampler is at: one epoch per
    /// [`Self::ingest`] / [`Self::ingest_batch`] call. This is the clock
    /// [`QueryOptions::cached`]'s staleness bound is measured against.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Hit/miss counters of the query cache (see [`QueryCacheStats`]).
    pub fn query_cache_stats(&self) -> QueryCacheStats {
        self.cache_stats
    }

    /// The typed query surface over [`Self::merged`] — the in-process
    /// twin of the service's query plane.
    ///
    /// A [`QueryOptions::consistent`] request behaves exactly like
    /// [`Self::merged`] (same fold-merge, same merge coins — the two are
    /// byte-identical) and additionally republishes the result into the
    /// query cache. A [`QueryOptions::cached`] request is answered
    /// from that cache when the cache's epoch is at most
    /// `max_epochs_stale` ingest calls behind [`Self::epoch`] — without
    /// touching the shards, the runtime, or the merge coins — and
    /// escalates to the consistent path otherwise ([`QueryOptions::admits`]
    /// is the rule). Cached answers are clones of one published merge, so
    /// repeated cached queries return byte-identical samplers.
    pub fn query(&mut self, options: &QueryOptions) -> QuerySnapshot<S> {
        if let Some(cache) = &self.cache {
            if options.admits(self.epoch, cache.epoch) {
                self.cache_stats.hits += 1;
                return QuerySnapshot {
                    value: cache.value.clone(),
                    epoch: cache.epoch,
                    cut: cache.cut,
                    cached: true,
                };
            }
        }
        self.cache_stats.misses += 1;
        let value = self.merged();
        let (epoch, cut) = (self.epoch, self.processed);
        self.cache = Some(MergedCache {
            epoch,
            cut,
            value: value.clone(),
        });
        QuerySnapshot {
            value,
            epoch,
            cut,
            cached: false,
        }
    }
}

/// Scatters one chunk into `k` per-shard buffers. `base` is the chunk's
/// global offset within the batch (plus the round-robin cursor), so cyclic
/// routing reproduces the per-update loop's assignment exactly.
fn scatter_chunk<U: StreamUpdate>(
    chunk: &[U],
    buffers: &mut [Vec<U>],
    strategy: ShardingStrategy,
    base: usize,
) {
    let k = buffers.len();
    // Pre-size for a balanced split plus 50% skew headroom, so growth
    // reallocations stay off the scatter path.
    let hint = chunk.len() / k + chunk.len() / (2 * k) + 8;
    for buffer in buffers.iter_mut() {
        buffer.reserve(hint);
    }
    match strategy {
        ShardingStrategy::Hash => {
            for &update in chunk {
                buffers[route(mix(update.route_key()), k)].push(update);
            }
        }
        ShardingStrategy::RoundRobin => {
            for (offset, &update) in chunk.iter().enumerate() {
                buffers[(base + offset) % k].push(update);
            }
        }
    }
}

impl<S> StreamSampler for ShardedSampler<S>
where
    S: MergeableSampler + UpdateSampler<Item> + Clone + Send + Snapshot + Restore + 'static,
{
    fn update(&mut self, item: Item) {
        self.ingest(item);
    }

    /// The persistent-runtime ingest path: route into per-shard staging
    /// buffers and ship each 32Ki-item chunk to its shard's [`RingLink`],
    /// returning once the batch is enqueued (blocking only while a ring is
    /// full). [`ShardedSampler::flush`], or any query or snapshot, is the
    /// completion barrier. Batches below the
    /// [`parallel_cutoff`](ShardedSampler::parallel_cutoff) take an
    /// equivalent scatter-and-drain path on the calling thread until the
    /// runtime starts. Deterministic routing plus the engines' batch ≡
    /// loop law make sharded batch ingest ≡ sharded per-item ingest.
    fn update_batch(&mut self, items: &[Item]) {
        self.ingest_batch(items);
    }

    /// Merges the shards — from snapshot-isolated cuts while the runtime is
    /// live — and queries the merged instance.
    fn sample(&mut self) -> SampleOutcome {
        self.merged().draw()
    }
}

impl<S> TurnstileSampler for ShardedSampler<S, SignedUpdate>
where
    S: MergeableSampler + UpdateSampler<SignedUpdate> + Clone + Send + Snapshot + Restore + 'static,
{
    fn update(&mut self, update: SignedUpdate) {
        self.ingest(update);
    }

    /// Same routed ingest path as the insertion-only impl, over signed
    /// updates: an update is routed by its *coordinate*
    /// ([`StreamUpdate::route_key`]), so under [`ShardingStrategy::Hash`]
    /// every update touching an item lands on one shard and merged
    /// frequencies are exact. For shard types whose merge is linear in the
    /// update stream (the turnstile `F_0` sampler), round-robin routing is
    /// exact too.
    fn update_batch(&mut self, updates: &[SignedUpdate]) {
        self.ingest_batch(updates);
    }

    /// Merges the shards — from snapshot-isolated cuts while the runtime is
    /// live — and queries the merged instance.
    fn sample(&mut self) -> SampleOutcome {
        self.merged().draw()
    }
}

impl<S, U> Clone for ShardedSampler<S, U>
where
    S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
    U: StreamUpdate,
{
    /// Clones the coordinator state and (quiesced) shard states. The clone
    /// starts without a live runtime and with a cold query cache; its pool
    /// starts lazily at its first large batch.
    fn clone(&self) -> Self {
        self.quiesce();
        Self {
            runtime: None,
            shards: self
                .shards
                .iter()
                .map(|cell| UnsafeCell::new(unsafe { &*cell.get() }.clone()))
                .collect(),
            strategy: self.strategy,
            cursor: self.cursor,
            scratch: Vec::new(),
            rng: self.rng.clone(),
            processed: self.processed,
            parallel_cutoff: self.parallel_cutoff,
            epoch: self.epoch,
            cache: None,
            cache_stats: QueryCacheStats::default(),
        }
    }
}

impl<S, U> std::fmt::Debug for ShardedSampler<S, U>
where
    S: MergeableSampler
        + UpdateSampler<U>
        + Clone
        + Send
        + Snapshot
        + Restore
        + 'static
        + std::fmt::Debug,
    U: StreamUpdate,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.quiesce();
        let shards: Vec<&S> = self
            .shards
            .iter()
            // SAFETY: quiesced above; see `Self::shard`.
            .map(|cell| unsafe { &*cell.get() })
            .collect();
        f.debug_struct("ShardedSampler")
            .field("strategy", &self.strategy)
            .field("cursor", &self.cursor)
            .field("processed", &self.processed)
            .field("epoch", &self.epoch)
            .field("runtime_active", &self.runtime.is_some())
            .field("cached_query", &self.cache.is_some())
            .field("shards", &shards)
            .finish()
    }
}

/// Wire format (v2): the router configuration (strategy, then — new in
/// format version 2 — a legacy backpressure byte, the parallel cutoff and a
/// legacy runtime chunk length, then round-robin cursor, processed count,
/// merge-coin RNG position) followed by each shard's own snapshot.
/// Worker-pool state is operational, not logical: encoding quiesces the
/// pool and ships only the shard states, and a restored sampler starts with
/// a cold runtime and the parallel cutoff it was built with (v1 snapshots
/// migrate with the frozen v1 defaults spliced in; see
/// `tps_streams::codec::migrate`).
///
/// The backpressure byte and chunk-length word date from when the runtime
/// had a flow-control policy and a chunk-size knob. The encoder writes the
/// values every sampler used by default (`0` for block, and
/// `RUNTIME_CHUNK`); the decoder still validates both so snapshots from
/// older writers restore, then ignores them: a restored sampler blocks and
/// ships `RUNTIME_CHUNK`-sized chunks, and by the batch ≡ loop law chunk
/// size cannot change shard state.
///
/// Because each shard is itself a complete snapshot of a mergeable
/// sampler, the per-shard records can also be shipped to *different*
/// processes and recombined there with [`fold_merge`] — restore-then-merge
/// is both the cross-machine scatter-gather path and what the runtime's
/// own snapshot-isolated queries replay in-process.
impl<S, U> Snapshot for ShardedSampler<S, U>
where
    S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
    U: StreamUpdate,
{
    const TAG: u16 = codec::tag::SHARDED_SAMPLER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        self.quiesce();
        w.put_tag(Self::TAG);
        w.put_u8(match self.strategy {
            ShardingStrategy::Hash => 0,
            ShardingStrategy::RoundRobin => 1,
        });
        w.put_u8(0);
        w.put_usize(self.parallel_cutoff);
        w.put_usize(RUNTIME_CHUNK);
        w.put_usize(self.cursor);
        w.put_u64(self.processed);
        self.rng.encode_into(w);
        w.put_len(self.shards.len());
        for cell in &self.shards {
            // SAFETY: quiesced above; see `Self::shard`.
            unsafe { &*cell.get() }.encode_into(w);
        }
    }
}

impl<S, U> Restore for ShardedSampler<S, U>
where
    S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
    U: StreamUpdate,
{
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let strategy = match r.get_u8()? {
            0 => ShardingStrategy::Hash,
            1 => ShardingStrategy::RoundRobin,
            _ => {
                return Err(CodecError::InvalidValue {
                    what: "sharding strategy flag must be 0 or 1",
                })
            }
        };
        // Legacy backpressure byte (0 block, 1 spill, 2 fail): validated,
        // then ignored — the runtime always blocks.
        if r.get_u8()? > 2 {
            return Err(CodecError::InvalidValue {
                what: "backpressure flag must be 0, 1 or 2",
            });
        }
        let parallel_cutoff = r.get_usize()?;
        // Legacy chunk length: likewise validated, then ignored.
        let chunk_len = r.get_usize()?;
        if parallel_cutoff == 0 || chunk_len == 0 {
            return Err(CodecError::InvalidValue {
                what: "parallel cutoff and chunk length must be positive",
            });
        }
        let cursor = r.get_usize()?;
        let processed = r.get_u64()?;
        let rng = Xoshiro256::decode_from(r)?;
        let count = r.get_len(1)?;
        // Shard counts track core counts; the cap leaves an order of
        // magnitude beyond any real host while keeping a hostile length
        // from driving the per-shard decode loop.
        const MAX_SHARDS: usize = 1 << 10;
        if count == 0 || count > MAX_SHARDS {
            return Err(CodecError::InvalidValue {
                what: "shard count out of range",
            });
        }
        if cursor >= count {
            return Err(CodecError::InvalidValue {
                what: "round-robin cursor outside the shard range",
            });
        }
        let mut shards: Vec<S> = Vec::with_capacity(count);
        for _ in 0..count {
            let shard = S::decode_from(r)?;
            // Individually valid shards can still disagree on configuration
            // (exponent, instance count, pre-drawn subsets); the query-time
            // fold-merge asserts on that, so reject it here as a typed
            // error instead of letting restored state panic at the first
            // sample.
            if shards
                .first()
                .is_some_and(|first| !first.merge_compatible(&shard))
            {
                return Err(CodecError::InvalidValue {
                    what: "shards disagree on sampler configuration",
                });
            }
            shards.push(shard);
        }
        Ok(Self {
            runtime: None,
            shards: shards.into_iter().map(UnsafeCell::new).collect(),
            strategy,
            cursor,
            // Sized lazily by the first sequential batch — never inside
            // the decoder.
            scratch: Vec::new(),
            rng,
            processed,
            parallel_cutoff,
            // Like the runtime: operational state restarts cold.
            epoch: 0,
            cache: None,
            cache_stats: QueryCacheStats::default(),
        })
    }
}

impl<S, U> SpaceUsage for ShardedSampler<S, U>
where
    S: MergeableSampler
        + UpdateSampler<U>
        + Clone
        + Send
        + Snapshot
        + Restore
        + 'static
        + SpaceUsage,
    U: StreamUpdate,
{
    fn space_bytes(&self) -> usize {
        self.quiesce();
        std::mem::size_of::<Self>()
            + self
                .shards
                .iter()
                // SAFETY: quiesced above; see `Self::shard`.
                .map(|cell| unsafe { &*cell.get() }.space_bytes())
                .sum::<usize>()
            + self
                .scratch
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<U>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::TrulyPerfectLpSampler;

    fn zipfish_stream(len: usize, universe: u64) -> Vec<Item> {
        (0..len as u64)
            .map(|i| {
                let z = mix(i);
                if z.is_multiple_of(3) {
                    z % 5
                } else {
                    z % universe
                }
            })
            .collect()
    }

    fn sharded_l2(
        shards: usize,
        strategy: ShardingStrategy,
        seed: u64,
    ) -> ShardedSampler<TrulyPerfectLpSampler> {
        ShardedSamplerBuilder::new(shards)
            .strategy(strategy)
            .seed(seed)
            .build(|idx| TrulyPerfectLpSampler::new(2.0, 512, 0.1, seed ^ ((idx as u64) << 32)))
    }

    #[test]
    fn hash_routing_keeps_items_on_one_shard() {
        let mut sharded = sharded_l2(4, ShardingStrategy::Hash, 1);
        let stream = zipfish_stream(5_000, 97);
        sharded.update_batch(&stream);
        assert_eq!(sharded.processed(), 5_000);
        // Every item's full frequency must sit on its hash shard.
        let per_shard: Vec<u64> = (0..4).map(|j| sharded.shard(j).processed()).collect();
        assert_eq!(per_shard.iter().sum::<u64>(), 5_000);
        let mut expected = vec![0u64; 4];
        for &item in &stream {
            expected[sharded.hash_shard_of(item)] += 1;
        }
        assert_eq!(per_shard, expected);
    }

    /// Sharded batch ≡ sharded loop: deterministic routing plus per-shard
    /// batch ≡ loop gives identical states, checked by comparing sample
    /// draws (which also compares the query RNG position).
    #[test]
    fn sharded_batch_equals_sharded_loop() {
        for strategy in [ShardingStrategy::Hash, ShardingStrategy::RoundRobin] {
            let stream = zipfish_stream(3_000, 61);
            let mut looped = sharded_l2(3, strategy, 7);
            for &x in &stream {
                looped.update(x);
            }
            let mut batched = sharded_l2(3, strategy, 7);
            for chunk in stream.chunks(271) {
                batched.update_batch(chunk);
            }
            for draw in 0..6 {
                assert_eq!(
                    looped.sample(),
                    batched.sample(),
                    "{strategy:?} diverged at draw {draw}"
                );
            }
        }
    }

    /// The runtime path (one whole-stream batch above the per-shard
    /// parallelism cutoff) and the
    /// sequential small-batch path (many chunks below it) leave identical
    /// states — same shard contents, same query RNG position — for both
    /// routing strategies.
    #[test]
    fn runtime_path_equals_sequential_path_and_loop() {
        let len = 3 * PARALLEL_MIN_PER_SHARD + 1_234;
        let stream = zipfish_stream(len, 61);
        for strategy in [ShardingStrategy::Hash, ShardingStrategy::RoundRobin] {
            let mut looped = sharded_l2(3, strategy, 21);
            for &x in &stream {
                looped.update(x);
            }
            let mut sequential = sharded_l2(3, strategy, 21);
            for piece in stream.chunks(501) {
                sequential.update_batch(piece);
            }
            let mut parallel = sharded_l2(3, strategy, 21);
            parallel.update_batch(&stream);
            assert!(parallel.runtime_active(), "cutoff must start the runtime");
            for draw in 0..6 {
                let want = looped.sample();
                assert_eq!(
                    want,
                    parallel.sample(),
                    "{strategy:?} runtime path diverged at draw {draw}"
                );
                assert_eq!(
                    want,
                    sequential.sample(),
                    "{strategy:?} sequential path diverged at draw {draw}"
                );
            }
        }
    }

    /// Queries issued *while* the runtime keeps ingesting match a
    /// quiesce-then-query reference: the snapshot barrier cuts exactly at
    /// the routed prefix, and later batches land on top of the same state.
    #[test]
    fn snapshot_isolated_queries_interleave_with_ingest() {
        let len = 3 * PARALLEL_MIN_PER_SHARD;
        let stream = zipfish_stream(2 * len, 61);
        let (first, second) = stream.split_at(len);
        let mut live = sharded_l2(3, ShardingStrategy::Hash, 33);
        let mut reference = sharded_l2(3, ShardingStrategy::Hash, 33);
        live.update_batch(first);
        assert!(live.runtime_active());
        reference.update_batch(first);
        reference.flush();
        // Query mid-stream: must answer for exactly the prefix.
        assert_eq!(live.sample(), reference.sample());
        live.update_batch(second);
        reference.update_batch(second);
        for draw in 0..4 {
            assert_eq!(live.sample(), reference.sample(), "draw {draw} diverged");
        }
    }

    /// Clones and snapshots taken while the runtime is live observe the
    /// full routed stream (quiesce-on-read), and the clone behaves like an
    /// independent sampler from that point.
    #[test]
    fn clone_and_snapshot_quiesce_the_live_runtime() {
        let len = 2 * PARALLEL_MIN_PER_SHARD;
        let stream = zipfish_stream(len, 97);
        let mut live = sharded_l2(2, ShardingStrategy::Hash, 5);
        live.update_batch(&stream);
        assert!(live.runtime_active());
        let mut cloned = live.clone();
        assert!(!cloned.runtime_active());
        assert_eq!(cloned.processed(), live.processed());
        let bytes = live.snapshot();
        let mut restored: ShardedSampler<TrulyPerfectLpSampler> =
            ShardedSampler::restore(&bytes).unwrap();
        for draw in 0..4 {
            let want = live.sample();
            assert_eq!(want, cloned.sample(), "clone diverged at draw {draw}");
            assert_eq!(want, restored.sample(), "restore diverged at draw {draw}");
        }
    }

    #[test]
    fn round_robin_balances_exactly() {
        let mut sharded = sharded_l2(4, ShardingStrategy::RoundRobin, 3);
        sharded.update_batch(&zipfish_stream(1_000, 13));
        for j in 0..4 {
            assert_eq!(sharded.shard(j).processed(), 250);
        }
    }

    #[test]
    fn empty_sharded_sampler_reports_empty() {
        let mut sharded = sharded_l2(4, ShardingStrategy::Hash, 9);
        assert_eq!(sharded.sample(), SampleOutcome::Empty);
    }

    #[test]
    fn merged_seen_covers_the_whole_stream() {
        let mut sharded = sharded_l2(5, ShardingStrategy::Hash, 11);
        sharded.update_batch(&zipfish_stream(4_321, 37));
        assert_eq!(sharded.merged().processed(), 4_321);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = sharded_l2(0, ShardingStrategy::Hash, 1);
    }

    /// Snapshots from writers that still had flow-control and chunk-size
    /// knobs restore: a hand-built v2 record carrying the spill (1) or
    /// fail (2) byte and a 2048-item chunk length comes back as a blocking
    /// sampler that, fed the same stream as a default-built twin, ends in
    /// the same state. Out-of-range legacy fields still fail typed, the
    /// parallel cutoff still round-trips, and the builder's routing helper
    /// agrees with the public `hash_route`.
    #[test]
    fn ingest_config_round_trips_through_snapshots() {
        use tps_streams::codec::{seal, tag};
        let twin = || {
            ShardedSamplerBuilder::new(2)
                .seed(3)
                .parallel_cutoff(1_000)
                .build(|idx| TrulyPerfectLpSampler::new(2.0, 512, 0.1, 3 ^ ((idx as u64) << 32)))
        };
        let prefix = zipfish_stream(500, 13);
        // Large enough to start the runtime on both sides.
        let suffix = zipfish_stream(5_000, 61);
        let mut base = twin();
        base.update_batch(&prefix);
        let legacy = |backpressure: u8, chunk_len: u64| {
            let mut w = SnapshotWriter::new();
            w.put_tag(tag::SHARDED_SAMPLER);
            w.put_u8(0); // hash strategy
            w.put_u8(backpressure);
            w.put_u64(1_000); // parallel cutoff
            w.put_u64(chunk_len);
            w.put_u64(0); // cursor
            w.put_u64(prefix.len() as u64); // processed
            Xoshiro256::seed_from_u64(3 ^ MERGE_SEED_SALT).encode_into(&mut w);
            w.put_u64(2); // shard count
            for j in 0..2 {
                base.shard(j).encode_into(&mut w);
            }
            seal(tag::SHARDED_SAMPLER, &w.into_bytes())
        };
        // Today's encoder writes exactly the default-policy legacy fields.
        assert_eq!(legacy(0, RUNTIME_CHUNK as u64), base.snapshot());
        for backpressure in [1, 2] {
            let mut restored: ShardedSampler<TrulyPerfectLpSampler> =
                ShardedSampler::restore(&legacy(backpressure, 2_048)).unwrap();
            assert_eq!(restored.parallel_cutoff(), 1_000);
            let mut default_built = twin();
            default_built.update_batch(&prefix);
            restored.update_batch(&suffix);
            default_built.update_batch(&suffix);
            assert!(restored.runtime_active());
            assert_eq!(
                restored.snapshot(),
                default_built.snapshot(),
                "legacy byte {backpressure} restored to a different sampler"
            );
        }
        for (backpressure, chunk_len) in [(3, 2_048), (0, 0)] {
            assert!(matches!(
                ShardedSampler::<TrulyPerfectLpSampler>::restore(&legacy(backpressure, chunk_len)),
                Err(CodecError::InvalidValue { .. })
            ));
        }
        for item in [0u64, 1, 99, u64::MAX] {
            assert_eq!(base.hash_shard_of(item), hash_route(item, 2));
        }
    }

    /// `runtime_stats` observes the live pool: chunks flow once the
    /// runtime starts, and a cold sampler reports all zeros.
    #[test]
    fn runtime_stats_observe_the_pool() {
        let mut sampler = sharded_l2(2, ShardingStrategy::Hash, 17);
        assert_eq!(sampler.runtime_stats(), RuntimeStats::default());
        sampler.update_batch(&zipfish_stream(2 * PARALLEL_MIN_PER_SHARD, 61));
        assert!(sampler.runtime_active());
        sampler.flush();
        let stats = sampler.runtime_stats();
        assert!(stats.chunks > 0, "runtime ingest must count chunks");
        assert_eq!(stats.spilled, 0);
    }

    /// A consistent `query()` is `merged()` by another name: same merged
    /// snapshot bytes, same merge-coin consumption, so the two paths stay
    /// interchangeable draw for draw.
    #[test]
    fn consistent_query_equals_merged() {
        let stream = zipfish_stream(3_000, 61);
        let mut via_merged = sharded_l2(3, ShardingStrategy::Hash, 13);
        let mut via_query = sharded_l2(3, ShardingStrategy::Hash, 13);
        via_merged.update_batch(&stream);
        via_query.update_batch(&stream);
        let merged = via_merged.merged();
        let snap = via_query.query(&QueryOptions::consistent());
        assert!(!snap.cached);
        assert_eq!(snap.cut, 3_000);
        assert_eq!(snap.value.snapshot(), merged.snapshot());
        // Both consumed the same coins: the next draws still agree.
        for draw in 0..4 {
            assert_eq!(
                via_merged.sample(),
                via_query.sample(),
                "coin streams diverged at draw {draw}"
            );
        }
    }

    /// A cached query within its staleness bound is a pure cache read:
    /// byte-identical to the consistent merge that filled the cache, no
    /// merge coins consumed, and the hit is counted.
    #[test]
    fn cached_query_serves_the_published_merge_without_coins() {
        let stream = zipfish_stream(2_000, 61);
        let mut live = sharded_l2(2, ShardingStrategy::Hash, 23);
        let mut reference = sharded_l2(2, ShardingStrategy::Hash, 23);
        live.update_batch(&stream);
        reference.update_batch(&stream);
        let published = live.query(&QueryOptions::consistent());
        let _ = reference.query(&QueryOptions::consistent());
        // Repeated cached reads answer from the same published merge.
        for round in 0..3 {
            let hit = live.query(&QueryOptions::cached(0));
            assert!(hit.cached, "round {round} missed a warm cache");
            assert_eq!(hit.epoch, published.epoch);
            assert_eq!(hit.cut, published.cut);
            assert_eq!(hit.value.snapshot(), published.value.snapshot());
        }
        assert_eq!(live.query_cache_stats().hits, 3);
        assert_eq!(live.query_cache_stats().misses, 1);
        // The cache reads drew no merge coins: the next consistent query
        // matches a reference that never queried the cache.
        assert_eq!(
            live.query(&QueryOptions::consistent()).value.snapshot(),
            reference
                .query(&QueryOptions::consistent())
                .value
                .snapshot()
        );
    }

    /// A cache staler than the caller's bound escalates to the consistent
    /// path; a tolerant bound keeps serving the old cut and reports its
    /// (older) epoch honestly.
    #[test]
    fn stale_cache_escalates_within_the_bound() {
        let stream = zipfish_stream(2_000, 61);
        let (first, second) = stream.split_at(1_000);
        let mut sampler = sharded_l2(2, ShardingStrategy::Hash, 29);
        sampler.update_batch(first);
        let published = sampler.query(&QueryOptions::consistent());
        // One more ingest call moves the live epoch past the cache.
        sampler.update_batch(second);
        assert_eq!(sampler.epoch(), published.epoch + 1);
        // Tolerating one epoch of lag still hits, pinned to the old cut.
        let lagged = sampler.query(&QueryOptions::cached(1));
        assert!(lagged.cached);
        assert_eq!(lagged.cut, 1_000);
        assert!(
            sampler.epoch() - lagged.epoch <= 1,
            "staleness bound violated"
        );
        // Demanding the current epoch escalates: fresh cut, full stream.
        let fresh = sampler.query(&QueryOptions::cached(0));
        assert!(!fresh.cached, "stale cache served past its bound");
        assert_eq!(fresh.cut, 2_000);
        assert_eq!(fresh.epoch, sampler.epoch());
        // And the escalation republished: cached(0) now hits.
        assert!(sampler.query(&QueryOptions::cached(0)).cached);
    }

    /// Epoch, cache and counters are operational state: a snapshot round
    /// trip resets them (like the runtime), while the logical sampler
    /// state is untouched.
    #[test]
    fn query_cache_is_transient_across_snapshots() {
        let mut sampler = sharded_l2(2, ShardingStrategy::Hash, 31);
        sampler.update_batch(&zipfish_stream(1_500, 37));
        let _ = sampler.query(&QueryOptions::consistent());
        assert!(sampler.query(&QueryOptions::cached(0)).cached);
        let restored: ShardedSampler<TrulyPerfectLpSampler> =
            ShardedSampler::restore(&sampler.snapshot()).unwrap();
        assert_eq!(restored.epoch(), 0);
        assert_eq!(restored.query_cache_stats(), QueryCacheStats::default());
        // A restored sampler has no cache to serve: cached(anything) must
        // escalate to a fresh consistent merge.
        let mut restored = restored;
        assert!(!restored.query(&QueryOptions::cached(u64::MAX)).cached);
    }

    // ----- turnstile instantiation: the same plumbing hosts signed shards -

    use crate::turnstile::StrictTurnstileF0Sampler;

    /// A strict stream: inserts with a deterministic sprinkling of
    /// insert-then-delete pairs, so every prefix keeps counts ≥ 0.
    fn signed_stream(len: usize, universe: u64) -> Vec<SignedUpdate> {
        let mut out = Vec::with_capacity(len * 2);
        for i in 0..len as u64 {
            let item = mix(i) % universe;
            out.push(SignedUpdate { item, delta: 1 });
            if i.is_multiple_of(3) {
                out.push(SignedUpdate { item, delta: 1 });
                out.push(SignedUpdate { item, delta: -1 });
            }
        }
        out
    }

    fn sharded_turnstile(
        shards: usize,
        strategy: ShardingStrategy,
        seed: u64,
    ) -> ShardedSampler<StrictTurnstileF0Sampler, SignedUpdate> {
        // One shared seed across shards: the turnstile merge law requires
        // identical pre-drawn subsets (same reason as the F0 kind).
        ShardedSamplerBuilder::new(shards)
            .strategy(strategy)
            .seed(seed)
            .build_turnstile(|_idx| StrictTurnstileF0Sampler::new(512, seed))
    }

    /// Sharded turnstile batch ≡ loop ≡ runtime path, for both routing
    /// strategies (round-robin is exact here: the turnstile merge is
    /// linear, so any partitioning works).
    #[test]
    fn sharded_turnstile_paths_agree() {
        let stream = signed_stream(3 * PARALLEL_MIN_PER_SHARD, 509);
        for strategy in [ShardingStrategy::Hash, ShardingStrategy::RoundRobin] {
            let mut looped = sharded_turnstile(3, strategy, 19);
            for &u in &stream {
                looped.update(u);
            }
            let mut batched = sharded_turnstile(3, strategy, 19);
            for chunk in stream.chunks(407) {
                batched.update_batch(chunk);
            }
            let mut parallel = sharded_turnstile(3, strategy, 19);
            parallel.update_batch(&stream);
            assert!(parallel.runtime_active(), "cutoff must start the runtime");
            for draw in 0..4 {
                let want = looped.sample();
                assert_eq!(
                    want,
                    batched.sample(),
                    "{strategy:?} batch path diverged at draw {draw}"
                );
                assert_eq!(
                    want,
                    parallel.sample(),
                    "{strategy:?} runtime path diverged at draw {draw}"
                );
            }
        }
    }

    /// The sharded turnstile sampler answers exactly like one unsharded
    /// instance over the interleaved stream: merging is linear (syndromes
    /// and membership counters add), so the shard cut is invisible — the
    /// merged snapshot is byte-identical, not just distributionally right.
    #[test]
    fn sharded_turnstile_equals_single_instance() {
        let stream = signed_stream(4_000, 389);
        let mut single = StrictTurnstileF0Sampler::new(512, 77);
        single.update_batch(&stream);
        let mut sharded = sharded_turnstile(4, ShardingStrategy::Hash, 77);
        sharded.update_batch(&stream);
        let merged = sharded.merged();
        assert_eq!(
            merged.snapshot(),
            single.snapshot(),
            "merged turnstile shards drifted from the single instance"
        );
        assert_eq!(sharded.sample(), single.sample());
    }

    /// Snapshot round trip of the sharded turnstile front-end: restore
    /// continues byte-identically (same draws) as the uninterrupted
    /// original.
    #[test]
    fn sharded_turnstile_snapshot_round_trips() {
        let stream = signed_stream(3_000, 257);
        let mut sampler = sharded_turnstile(3, ShardingStrategy::Hash, 5);
        sampler.update_batch(&stream);
        let bytes = sampler.snapshot();
        let mut restored: ShardedSampler<StrictTurnstileF0Sampler, SignedUpdate> =
            ShardedSampler::restore(&bytes).unwrap();
        for draw in 0..4 {
            assert_eq!(
                sampler.sample(),
                restored.sample(),
                "restored sharded turnstile diverged at draw {draw}"
            );
        }
    }
}
