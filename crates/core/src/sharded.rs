//! Scatter-gather sharding: parallel ingest across `k` sampler shards with
//! query-time merging.
//!
//! The samplers in this workspace are one-pass and oblivious to how the
//! stream is partitioned, so the single-core ingest ceiling is not a system
//! ceiling: [`ShardedSampler`] routes updates across `k` independent shard
//! instances, feeds each shard's amortised batch path through one
//! [`RingLink`] per shard (a long-lived thread behind a bounded channel —
//! no per-batch spawn/join), and answers queries from consistent cuts
//! folded by [`fold_merge`].
//!
//! ## Routing and exactness
//!
//! Every update is routed by a fixed hash of its item ([`hash_route`]), so
//! every occurrence of an item lands on the same shard. Merged suffix
//! counts are then exact, and the sharded sampler is **distributionally
//! equivalent** to a single instance over the interleaved stream for
//! *every* measure `G` (and for the `F_0` sampler, whose shards must share
//! one seed so their pre-drawn subsets coincide — see
//! `TrulyPerfectF0Sampler`'s merge docs). A partition that split an item's
//! occurrences would be exact only for constant-increment measures
//! (`tps_streams::merge` states the law), so none is offered.
//!
//! ## Query semantics (consistent cuts)
//!
//! A query ([`ShardedSampler::merged`], and [`StreamSampler::sample`]
//! over it) answers for exactly the stream routed before it. While the
//! runtime is live it first runs a `Sync` barrier ([`barrier_all`]):
//! staged chunks ship, every worker applies what it was sent, acks, and
//! waits idle without its shard's lock. The query then fold-merges clones
//! of the shard states. It holds `&mut self` throughout, so no ingest
//! interleaves and the clones are a consistent cut. No snapshot is
//! encoded or restored in-process; that codec round trip is the
//! cross-process path (the ingest service's `Query` barrier), and the
//! pinned restore-then-merge ≡ in-process-merge law keeps both answers
//! byte-identical.
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
//! The front door is [`ShardedSampler::builder`]: shard count, seed and
//! parallel cutoff as named setters, then
//! [`ShardedSamplerBuilder::build`] with the per-shard factory. Flow
//! control is not a knob: when a shard's ring fills, ingest blocks until
//! that worker drains a slot, so every routed update is applied and
//! coordinator memory stays bounded. [`ShardedSampler::runtime_stats`]
//! counts how often ingest had to block.

use std::io;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::runtime::{barrier_all, RingLink, RuntimeStats, ShardLink};
use tps_random::{StreamRng, Xoshiro256};
use tps_streams::codec::{self, CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
use tps_streams::wire::BarrierKind;
use tps_streams::{
    Item, MergeableSampler, QueryOptions, QuerySnapshot, SampleOutcome, SignedUpdate, SpaceUsage,
    StreamSampler, StreamUpdate, TurnstileSampler, UpdateSampler,
};

/// How [`ShardedSampler`] routes updates to shards. Hash routing is the
/// only strategy, because it is the only one exact for every measure (see
/// the module docs). The enum and [`ShardedSamplerBuilder::strategy`]
/// remain so that callers which name the strategy keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardingStrategy {
    /// Route by a fixed hash of the item: all occurrences of an item land
    /// on one shard, making merged suffix counts — and therefore the merged
    /// output distribution — exact for every measure.
    Hash,
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

/// The shard index an item lands on with `shards` shards — the routing
/// function itself, exposed so *external* partitioners (e.g. a
/// multi-process ingest service splitting one stream across worker
/// processes) route exactly like an in-process [`ShardedSampler`] and the
/// merged answers line up byte for byte.
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

/// Items staged per shard before a chunk is shipped to the shard's link,
/// and the most a service worker link sends as one piece. Fixed, not a
/// knob; public read-only so benchmarks and the service can slice work
/// the way the runtime ships it. Coarse enough that channel crossings and
/// reply traffic are amortised away, fine enough to bound the queue a
/// barrier waits behind; [`RING_CAPACITY`](crate::runtime::RING_CAPACITY)
/// derives that bound and what it costs a consistent query.
pub const RUNTIME_CHUNK: usize = 8 * 1024;

/// Named-setter construction for [`ShardedSampler`] — the front door that
/// replaced the positional-argument constructor.
///
/// Every knob has a sensible default; only the shard count is mandatory:
///
/// ```
/// use tps_core::sharded::ShardedSamplerBuilder;
/// use tps_core::lp::TrulyPerfectLpSampler;
///
/// let sampler = ShardedSamplerBuilder::new(4)
///     .seed(42)
///     .build(|shard| TrulyPerfectLpSampler::new(2.0, 512, 0.1, 42 ^ ((shard as u64) << 32)));
/// assert_eq!(sampler.shard_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedSamplerBuilder {
    shards: usize,
    seed: u64,
    parallel_cutoff: usize,
}

impl ShardedSamplerBuilder {
    /// Starts a builder for `shards` shard instances. Defaults: seed `0`
    /// and a 4096-item-per-shard parallel cutoff.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self {
            shards,
            seed: 0,
            parallel_cutoff: PARALLEL_MIN_PER_SHARD,
        }
    }

    /// Names the routing strategy. [`ShardingStrategy::Hash`] is the only
    /// one, so this changes nothing; it stays for callers that spell the
    /// strategy out.
    pub fn strategy(self, _strategy: ShardingStrategy) -> Self {
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
            shards: (0..self.shards).map(|idx| shared(factory(idx))).collect(),
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
/// per-shard staging buffers of routed-but-unshipped items. Behind a
/// `Mutex` so `&self` accessors can quiesce (ship + flush) through
/// interior mutability.
struct RuntimeState<U: StreamUpdate> {
    links: Vec<RingLink<U>>,
    staging: Vec<Vec<U>>,
    /// The last barrier epoch sent on the links.
    epoch: u64,
}

impl<U: StreamUpdate> RuntimeState<U> {
    /// Ships every non-empty staging buffer (staged items were routed
    /// after everything already shipped), then runs one `Sync` barrier
    /// across every shard: on return every routed update is applied and
    /// each worker waits idle, without its shard's lock.
    fn quiesce(&mut self) {
        for (link, buffer) in self.links.iter_mut().zip(&mut self.staging) {
            if !buffer.is_empty() {
                *buffer = link.ship(std::mem::take(buffer)).expect("rings never err");
            }
        }
        self.epoch += 1;
        barrier_all(&mut self.links, self.epoch, BarrierKind::Sync)
            .unwrap_or_else(|e| panic!("in-process barrier failed: {e}"));
    }

    /// Heap bytes of the chunk buffers this side holds: the staging
    /// buffers and each link's recycled ones.
    fn buffer_bytes(&self) -> usize {
        let links = self.links.iter().flat_map(RingLink::free_buffers);
        self.staging
            .iter()
            .chain(links)
            .map(|b| b.capacity() * std::mem::size_of::<U>())
            .sum()
    }

    fn stats(&self) -> RuntimeStats {
        let mut total = RuntimeStats::default();
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
    runtime: Option<Mutex<RuntimeState<U>>>,
    /// Shard states, each shared with its ring link's worker while the
    /// runtime is live.
    shards: Vec<Arc<Mutex<S>>>,
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

fn shared<S>(shard: S) -> Arc<Mutex<S>> {
    Arc::new(Mutex::new(shard))
}

/// Locks a shard or the runtime. A shard worker's panic poisons both: the
/// shard it was applying a chunk to, and the runtime it is re-raised under.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("shard worker panicked")
}

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
            Some(runtime) => lock(runtime).stats(),
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
    /// The returned guard holds the shard's lock: while it lives, call no
    /// other accessor that reads the same shard (`shard(idx)` again,
    /// `clone`, `snapshot`, `space_bytes`, `{:?}`), or it deadlocks.
    /// Guards of different shards may be held together.
    pub fn shard(&self, idx: usize) -> impl Deref<Target = S> + '_ {
        self.quiesce();
        lock(&self.shards[idx])
    }

    /// The shard index an item is routed to.
    #[inline]
    pub fn hash_shard_of(&self, item: Item) -> usize {
        route(mix(item), self.shards.len())
    }

    /// Ships staged chunks and waits for every worker to apply them, so
    /// shard reads observe every update routed so far.
    fn quiesce(&self) {
        if let Some(runtime) = &self.runtime {
            lock(runtime).quiesce();
        }
    }

    /// Lock-free access to one shard while no runtime shares it.
    fn shard_mut(&mut self, idx: usize) -> &mut S {
        Arc::get_mut(&mut self.shards[idx])
            .expect("no runtime shares the shard")
            .get_mut()
            .expect("shard worker panicked")
    }

    /// Starts one ring link per shard over the current shard states.
    fn start_runtime(&mut self) {
        debug_assert!(self.runtime.is_none());
        let links = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, state)| RingLink::start(shard, Arc::clone(state)))
            .collect();
        self.runtime = Some(Mutex::new(RuntimeState {
            links,
            staging: vec![Vec::new(); self.shards.len()],
            epoch: 0,
        }));
    }

    /// Routes `updates` into the live runtime's staging buffers, shipping
    /// each buffer as it reaches [`RUNTIME_CHUNK`]. Per-shard update order
    /// is exactly the loop order, so the engines' batch ≡ loop law carries
    /// over chunk boundaries unchanged.
    fn scatter_to_runtime(&mut self, updates: &[U]) {
        let k = self.shards.len();
        let state = self
            .runtime
            .as_mut()
            .expect("runtime is live")
            .get_mut()
            .unwrap();
        for &update in updates {
            let shard = route(mix(update.route_key()), k);
            let buffer = &mut state.staging[shard];
            buffer.push(update);
            if buffer.len() >= RUNTIME_CHUNK {
                let chunk = std::mem::take(buffer);
                *buffer = state.links[shard].ship(chunk).expect("rings never err");
            }
        }
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
        let shard = route(mix(update.route_key()), self.shards.len());
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
        scatter_chunk(updates, &mut self.scratch);
        let scratch = std::mem::take(&mut self.scratch);
        for (shard, buffer) in scratch.iter().enumerate() {
            if !buffer.is_empty() {
                self.shard_mut(shard).ingest_batch(buffer);
            }
        }
        self.scratch = scratch;
    }

    /// Builds a merged sampler answering for the combined stream of all
    /// shards: quiesces the runtime (a no-op while it is not live), then
    /// fold-merges clones of the shard states. `&mut self` keeps ingest
    /// out for the whole call, so the clones are a consistent cut of
    /// everything routed before it. Merge coins come from the front-end's
    /// own RNG, so repeated queries draw independent merged states.
    pub fn merged(&mut self) -> S {
        self.quiesce();
        let clone = |state: &Arc<Mutex<S>>| lock(state).clone();
        fold_merge(self.shards.iter().map(clone), &mut self.rng).unwrap_or_else(|e| panic!("{e}"))
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

/// Scatters one chunk into `k` per-shard buffers, each in stream order.
fn scatter_chunk<U: StreamUpdate>(chunk: &[U], buffers: &mut [Vec<U>]) {
    let k = buffers.len();
    // Pre-size for a balanced split plus 50% skew headroom, so growth
    // reallocations stay off the scatter path.
    let hint = chunk.len() / k + chunk.len() / (2 * k) + 8;
    for buffer in buffers.iter_mut() {
        buffer.reserve(hint);
    }
    for &update in chunk {
        buffers[route(mix(update.route_key()), k)].push(update);
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
    /// buffers and ship each [`RUNTIME_CHUNK`]-item chunk to its shard's
    /// [`RingLink`], returning once the batch is enqueued (blocking only
    /// while a ring is full). [`ShardedSampler::flush`], or any query or snapshot, is the
    /// completion barrier. Batches below the
    /// [`parallel_cutoff`](ShardedSampler::parallel_cutoff) take an
    /// equivalent scatter-and-drain path on the calling thread until the
    /// runtime starts. Deterministic routing plus the engines' batch ≡
    /// loop law make sharded batch ingest ≡ sharded per-item ingest.
    fn update_batch(&mut self, items: &[Item]) {
        self.ingest_batch(items);
    }

    /// Merges the shards at a consistent cut (see
    /// [`ShardedSampler::merged`]) and queries the merged instance.
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
    /// ([`StreamUpdate::route_key`]), so every update touching an item
    /// lands on one shard and merged frequencies are exact.
    fn update_batch(&mut self, updates: &[SignedUpdate]) {
        self.ingest_batch(updates);
    }

    /// Merges the shards at a consistent cut (see
    /// [`ShardedSampler::merged`]) and queries the merged instance.
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
                .map(|s| shared(lock(s).clone()))
                .collect(),
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
        let shards: Vec<_> = self.shards.iter().map(|s| lock(s)).collect();
        f.debug_struct("ShardedSampler")
            .field("processed", &self.processed)
            .field("epoch", &self.epoch)
            .field("runtime_active", &self.runtime.is_some())
            .field("cached_query", &self.cache.is_some())
            .field("shards", &shards)
            .finish()
    }
}

/// Wire format (v2): the router configuration (strategy byte, then — new
/// in format version 2 — a legacy backpressure byte, the parallel cutoff
/// and a legacy runtime chunk length, then a legacy round-robin cursor, the
/// processed count and the merge-coin RNG position) followed by each
/// shard's own snapshot. Worker-pool state is operational, not logical: encoding quiesces the
/// pool and ships only the shard states, and a restored sampler starts with
/// a cold runtime and the parallel cutoff it was built with (v1 snapshots
/// migrate with the frozen v1 defaults spliced in; see
/// `tps_streams::codec::migrate`).
///
/// The backpressure byte and chunk-length word date from when the runtime
/// had a flow-control policy and a chunk-size knob. The encoder writes the
/// frozen v1 values (`0` for block, and
/// [`V1_SHARDED_CHUNK_LEN`](codec::migrate::V1_SHARDED_CHUNK_LEN)), so
/// retuning [`RUNTIME_CHUNK`] never moves snapshot bytes; the decoder still
/// validates both so snapshots from older writers restore, then ignores
/// them: a restored sampler blocks and ships `RUNTIME_CHUNK`-sized chunks,
/// and by the batch ≡ loop law chunk size cannot change shard state.
///
/// The strategy byte and cursor word date from when round-robin routing
/// existed. The encoder writes `0` (hash) and a zero cursor, and the
/// decoder rejects anything else as [`CodecError::InvalidValue`]: a
/// round-robin snapshot's shards hold split item frequencies, which no
/// hash-routed sampler can continue exactly.
///
/// Because each shard is itself a complete snapshot of a mergeable
/// sampler, the per-shard records can also be shipped to *different*
/// processes and recombined there with [`fold_merge`]. Restore-then-merge
/// is the cross-process scatter-gather path; in-process queries fold the
/// shard states directly, and the two agree byte for byte.
impl<S, U> Snapshot for ShardedSampler<S, U>
where
    S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
    U: StreamUpdate,
{
    const TAG: u16 = codec::tag::SHARDED_SAMPLER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        self.quiesce();
        w.put_tag(Self::TAG);
        w.put_u8(0);
        w.put_u8(0);
        w.put_usize(self.parallel_cutoff);
        w.put_u64(codec::migrate::V1_SHARDED_CHUNK_LEN);
        w.put_u64(0);
        w.put_u64(self.processed);
        self.rng.encode_into(w);
        w.put_len(self.shards.len());
        for shard in &self.shards {
            lock(shard).encode_into(w);
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
        if r.get_u8()? != 0 {
            return Err(CodecError::InvalidValue {
                what: "sharding strategy flag must be 0 (hash)",
            });
        }
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
        // Legacy round-robin cursor: always zero under hash routing.
        if r.get_u64()? != 0 {
            return Err(CodecError::InvalidValue {
                what: "round-robin cursor must be 0",
            });
        }
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
            shards: shards.into_iter().map(shared).collect(),
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
        let runtime_buffers = self
            .runtime
            .as_ref()
            .map_or(0, |runtime| lock(runtime).buffer_bytes());
        let cache = self.cache.as_ref().map_or(0, |c| c.value.space_bytes());
        std::mem::size_of::<Self>()
            + self
                .shards
                .iter()
                .map(|s| lock(s).space_bytes())
                .sum::<usize>()
            + self
                .scratch
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<U>())
                .sum::<usize>()
            + runtime_buffers
            + cache
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

    /// A `zipfish_stream`-shaped stream whose updates cycle through the
    /// shards: update `i` is an item that [`hash_route`] sends to shard
    /// `i % shards`, so every shard gets an equal share.
    fn balanced_stream(len: usize, universe: u64, shards: usize) -> Vec<Item> {
        let mut pools = vec![Vec::new(); shards];
        for item in 0..universe {
            pools[hash_route(item, shards)].push(item);
        }
        assert!(pools.iter().all(|pool| !pool.is_empty()));
        zipfish_stream(len, universe)
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                let pool = &pools[i % shards];
                pool[x as usize % pool.len()]
            })
            .collect()
    }

    fn sharded_l2(shards: usize, seed: u64) -> ShardedSampler<TrulyPerfectLpSampler> {
        ShardedSamplerBuilder::new(shards)
            .seed(seed)
            .build(|idx| TrulyPerfectLpSampler::new(2.0, 512, 0.1, seed ^ ((idx as u64) << 32)))
    }

    #[test]
    fn hash_routing_keeps_items_on_one_shard() {
        let mut sharded = sharded_l2(4, 1);
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
        let stream = zipfish_stream(3_000, 61);
        let mut looped = sharded_l2(3, 7);
        for &x in &stream {
            looped.update(x);
        }
        let mut batched = sharded_l2(3, 7);
        for chunk in stream.chunks(271) {
            batched.update_batch(chunk);
        }
        for draw in 0..6 {
            assert_eq!(looped.sample(), batched.sample(), "diverged at draw {draw}");
        }
    }

    /// The runtime path (one whole-stream batch above the per-shard
    /// parallelism cutoff) and the
    /// sequential small-batch path (many chunks below it) leave identical
    /// states — same shard contents, same query RNG position.
    #[test]
    fn runtime_path_equals_sequential_path_and_loop() {
        let len = 3 * PARALLEL_MIN_PER_SHARD + 1_234;
        let stream = zipfish_stream(len, 61);
        let mut looped = sharded_l2(3, 21);
        for &x in &stream {
            looped.update(x);
        }
        let mut sequential = sharded_l2(3, 21);
        for piece in stream.chunks(501) {
            sequential.update_batch(piece);
        }
        let mut parallel = sharded_l2(3, 21);
        parallel.update_batch(&stream);
        assert!(parallel.runtime_active(), "cutoff must start the runtime");
        for draw in 0..6 {
            let want = looped.sample();
            assert_eq!(
                want,
                parallel.sample(),
                "runtime path diverged at draw {draw}"
            );
            assert_eq!(
                want,
                sequential.sample(),
                "sequential path diverged at draw {draw}"
            );
        }
    }

    /// Batches big enough to ship several full chunks per shard mid-batch,
    /// more in all than a shard's ring holds, with a consistent query
    /// between them: the runtime path, the sequential path and the
    /// per-update loop answer the mid-stream query identically and end in
    /// identical shards.
    #[test]
    fn multi_chunk_batches_match_sequential_and_loop() {
        const BATCH: usize = 64 * 1024;
        let shards = 2;
        // The stream splits evenly, so every shard gets at least this many
        // chunks.
        let chunks_per_shard = crate::runtime::RING_CAPACITY + 4;
        let len = (shards * chunks_per_shard * RUNTIME_CHUNK).next_multiple_of(BATCH);
        let stream = balanced_stream(len, 61, shards);
        let build = |cutoff: usize| {
            ShardedSamplerBuilder::new(shards)
                .seed(37)
                .parallel_cutoff(cutoff)
                .build(|idx| TrulyPerfectLpSampler::new(2.0, 512, 0.1, 37 ^ ((idx as u64) << 32)))
        };
        let mut looped = build(PARALLEL_MIN_PER_SHARD);
        let mut sequential = build(BATCH);
        let mut runtime = build(PARALLEL_MIN_PER_SHARD);
        let batches: Vec<&[Item]> = stream.chunks(BATCH).collect();
        let (first, second) = batches.split_at(batches.len() / 2);
        let query = |s: &mut ShardedSampler<TrulyPerfectLpSampler>| {
            let snap = s.query(&QueryOptions::consistent());
            (snap.cut, snap.value.snapshot())
        };
        let mut cuts = Vec::new();
        for half in [first, second] {
            for batch in half {
                batch.iter().for_each(|&x| looped.update(x));
                sequential.update_batch(batch);
                runtime.update_batch(batch);
            }
            let want = query(&mut looped);
            assert_eq!(want, query(&mut sequential), "sequential cut drifted");
            assert_eq!(want, query(&mut runtime), "runtime cut drifted");
            cuts.push(want.0);
        }
        assert_eq!(cuts, [(len / 2) as u64, len as u64]);
        assert!(runtime.runtime_active() && !sequential.runtime_active());
        let chunks = runtime.runtime_stats().chunks;
        assert!(
            chunks >= (shards * chunks_per_shard) as u64,
            "only {chunks} chunks shipped"
        );
        for j in 0..shards {
            let want = looped.shard(j).snapshot();
            assert_eq!(want, sequential.shard(j).snapshot(), "sequential shard {j}");
            assert_eq!(want, runtime.shard(j).snapshot(), "runtime shard {j}");
        }
        for draw in 0..4 {
            let want = looped.sample();
            assert_eq!(want, sequential.sample(), "sequential draw {draw}");
            assert_eq!(want, runtime.sample(), "runtime draw {draw}");
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
        let mut live = sharded_l2(3, 33);
        let mut reference = sharded_l2(3, 33);
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
        let mut live = sharded_l2(2, 5);
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
    fn empty_sharded_sampler_reports_empty() {
        let mut sharded = sharded_l2(4, 9);
        assert_eq!(sharded.sample(), SampleOutcome::Empty);
    }

    #[test]
    fn merged_seen_covers_the_whole_stream() {
        let mut sharded = sharded_l2(5, 11);
        sharded.update_batch(&zipfish_stream(4_321, 37));
        assert_eq!(sharded.merged().processed(), 4_321);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = sharded_l2(0, 1);
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
        // Today's encoder writes exactly the frozen v1 legacy fields.
        assert_eq!(
            legacy(0, codec::migrate::V1_SHARDED_CHUNK_LEN),
            base.snapshot()
        );
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
        let mut sampler = sharded_l2(2, 17);
        assert_eq!(sampler.runtime_stats(), RuntimeStats::default());
        sampler.update_batch(&zipfish_stream(2 * PARALLEL_MIN_PER_SHARD, 61));
        assert!(sampler.runtime_active());
        sampler.flush();
        let stats = sampler.runtime_stats();
        assert!(stats.chunks > 0, "runtime ingest must count chunks");
        assert_eq!(stats.spilled, 0);
    }

    /// `space_bytes` counts all the heap the sampler owns: its shards, the
    /// live runtime's chunk buffers and the query cache's merged sampler.
    #[test]
    fn space_bytes_counts_runtime_buffers_and_query_cache() {
        let mut sampler = sharded_l2(2, 29);
        sampler.update_batch(&zipfish_stream(64 * 1024, 61));
        let _ = sampler.query(&QueryOptions::consistent());
        let shards: usize = (0..2).map(|j| sampler.shard(j).space_bytes()).sum();
        let cache = sampler.cache.as_ref().expect("query fills the cache");
        let chunk = RUNTIME_CHUNK * std::mem::size_of::<Item>();
        let floor = shards + cache.value.space_bytes() + chunk;
        let counted = sampler.space_bytes();
        assert!(
            counted >= floor,
            "counted {counted} B, owns at least {floor} B"
        );
    }

    /// Guards of two shards can be held together on a live runtime: the
    /// second `shard` call quiesces through a `Sync` barrier, which no
    /// worker answers under its shard's lock. On its own thread, so a
    /// deadlock fails the test instead of hanging it.
    #[test]
    fn guards_of_two_shards_do_not_deadlock() {
        let (done, sum) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut sampler = sharded_l2(2, 41);
            sampler.update_batch(&zipfish_stream(2 * PARALLEL_MIN_PER_SHARD, 61));
            assert!(sampler.runtime_active());
            let (a, b) = (sampler.shard(0), sampler.shard(1));
            done.send(a.processed() + b.processed()).unwrap();
        });
        let sum = sum.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(sum, Ok(2 * PARALLEL_MIN_PER_SHARD as u64));
        reader.join().unwrap();
    }

    /// A panic in one shard's update path, hit on its worker thread,
    /// re-raises through `flush` with the worker's own payload, not a
    /// poisoned-lock message, and the sampler still drops cleanly.
    #[test]
    fn shard_panic_surfaces_through_flush() {
        /// Panics on every update when armed.
        #[derive(Clone)]
        struct Bomb(bool);
        impl StreamSampler for Bomb {
            fn update(&mut self, _item: Item) {
                assert!(!self.0, "boom");
            }
            fn sample(&mut self) -> SampleOutcome {
                SampleOutcome::Empty
            }
        }
        impl MergeableSampler for Bomb {
            fn merge(self, _other: Self, _rng: &mut dyn StreamRng) -> Self {
                self
            }
            fn merge_compatible(&self, _other: &Self) -> bool {
                true
            }
        }
        impl Snapshot for Bomb {
            const TAG: u16 = 0xFFFF;
            fn encode_into(&self, w: &mut SnapshotWriter) {
                w.put_tag(Self::TAG);
            }
        }
        impl Restore for Bomb {
            fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
                r.expect_tag(Self::TAG).map(|()| Self(false))
            }
        }
        let mut sampler = ShardedSamplerBuilder::new(2).build(|idx| Bomb(idx == 0));
        // Starts the runtime but stages less than a chunk per shard, so
        // shard 0's worker first sees an update inside `flush`.
        sampler.update_batch(&balanced_stream(2 * PARALLEL_MIN_PER_SHARD, 61, 2));
        assert!(sampler.runtime_active());
        let flushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sampler.flush()));
        let payload = flushed.expect_err("the worker's panic must surface");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom"));
        drop(sampler);
    }

    /// A consistent `query()` is `merged()` by another name: same merged
    /// snapshot bytes, same merge-coin consumption, so the two paths stay
    /// interchangeable draw for draw.
    #[test]
    fn consistent_query_equals_merged() {
        let stream = zipfish_stream(3_000, 61);
        let mut via_merged = sharded_l2(3, 13);
        let mut via_query = sharded_l2(3, 13);
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
        let mut live = sharded_l2(2, 23);
        let mut reference = sharded_l2(2, 23);
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
        let mut sampler = sharded_l2(2, 29);
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
        let mut sampler = sharded_l2(2, 31);
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
        seed: u64,
    ) -> ShardedSampler<StrictTurnstileF0Sampler, SignedUpdate> {
        // One shared seed across shards: the turnstile merge law requires
        // identical pre-drawn subsets (same reason as the F0 kind).
        ShardedSamplerBuilder::new(shards)
            .seed(seed)
            .build_turnstile(|_idx| StrictTurnstileF0Sampler::new(512, seed))
    }

    /// Sharded turnstile batch ≡ loop ≡ runtime path.
    #[test]
    fn sharded_turnstile_paths_agree() {
        let stream = signed_stream(3 * PARALLEL_MIN_PER_SHARD, 509);
        let mut looped = sharded_turnstile(3, 19);
        for &u in &stream {
            looped.update(u);
        }
        let mut batched = sharded_turnstile(3, 19);
        for chunk in stream.chunks(407) {
            batched.update_batch(chunk);
        }
        let mut parallel = sharded_turnstile(3, 19);
        parallel.update_batch(&stream);
        assert!(parallel.runtime_active(), "cutoff must start the runtime");
        for draw in 0..4 {
            let want = looped.sample();
            assert_eq!(want, batched.sample(), "batch path diverged at draw {draw}");
            assert_eq!(
                want,
                parallel.sample(),
                "runtime path diverged at draw {draw}"
            );
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
        let mut sharded = sharded_turnstile(4, 77);
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
        let mut sampler = sharded_turnstile(3, 5);
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

    /// In-process queries fold clones of the quiesced shards; the service
    /// restores each shard's wire snapshot and folds those with coins from
    /// `seed ^ MERGE_SEED_SALT`. On a live 3-shard runtime, queried
    /// mid-stream and again at the end (the coins carried over), both give
    /// the same bytes, for L2 shards and for turnstile F0 shards.
    #[test]
    fn live_queries_equal_the_restore_then_fold_recipe() {
        fn check<S, U>(mut live: ShardedSampler<S, U>, stream: &[U], seed: u64)
        where
            S: MergeableSampler + UpdateSampler<U> + Clone + Send + Snapshot + Restore + 'static,
            U: StreamUpdate,
        {
            let mut coins = Xoshiro256::seed_from_u64(seed ^ MERGE_SEED_SALT);
            for (cut, part) in stream.chunks(stream.len().div_ceil(2)).enumerate() {
                live.ingest_batch(part);
                assert!(live.runtime_active(), "cut {cut} ran without the runtime");
                let merged = live.merged().snapshot();
                let restore = |i| S::restore(&live.shard(i).snapshot()).unwrap();
                let want = fold_merge((0..3).map(restore), &mut coins).unwrap();
                assert_eq!(
                    merged,
                    want.snapshot(),
                    "cut {cut} drifted from restore-then-fold"
                );
            }
            assert!(live.runtime_stats().chunks >= 3 * 2 * 3);
        }
        // Each half routes about three chunks plus a staged remainder to
        // every shard.
        let half = 9 * RUNTIME_CHUNK + 1_234;
        check(sharded_l2(3, 29), &zipfish_stream(2 * half, 509), 29);
        check(
            sharded_turnstile(3, 31),
            &signed_stream(2 * half * 3 / 5, 509),
            31,
        );
    }
}
