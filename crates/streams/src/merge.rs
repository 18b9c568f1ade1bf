//! Mergeability contracts for samplers and summaries.
//!
//! The paper's samplers are one-pass and oblivious to how the stream is
//! partitioned, which makes them natural candidates for scatter-gather
//! sharding: split the stream across `k` independent instances, ingest the
//! shards in parallel, and answer queries from a *merged* instance. Two
//! different merge strengths appear in this workspace and the traits here
//! name them:
//!
//! * [`MergeableSummary`] — **exactly** mergeable: the merged summary's
//!   guarantees are those the summary would offer over the concatenated
//!   stream (for Misra–Gries the deterministic error bounds compose
//!   additively). Merging is pure counter arithmetic and consumes no
//!   randomness.
//! * [`MergeableSampler`] — **distributionally** mergeable: the merged
//!   sampler's output distribution equals the distribution a single
//!   instance would have had over the combined stream. Merging draws a
//!   random combined state (e.g. reservoir slots drawn from the two inputs
//!   weighted by how many updates each admitted), so it needs an RNG.
//!
//! ## Which partitionings are exact
//!
//! A merged timestamp-based sampler reconstructs suffix counts from its two
//! inputs, and an input can only count occurrences *it saw*. Consequently:
//!
//! * **Hash partitioning** (every occurrence of an item routed to the same
//!   shard) is distributionally exact for *every* measure `G`: each shard
//!   owns its items' full frequencies, so merged suffix counts are exact.
//! * **Any partitioning that splits an item's occurrences** (round-robin,
//!   arbitrary) is exact only for constant-increment measures (`L_1`:
//!   acceptance is independent of the suffix count) and linear sketches.
//!   For every other measure it is an approximation, because occurrences
//!   of a slot's item that landed on *other* shards are missing from its
//!   suffix count.
//!
//! `ShardedSampler` in `tps-core` builds the scatter-gather front-end on
//! top of these traits. By this law it offers hash routing only, so no
//! sharded sampler it builds can be inexact.

use tps_random::StreamRng;

/// A sampler whose instances can be merged into one that answers for the
/// combined stream.
///
/// Implementations must document their merge semantics precisely; the
/// contract is *concatenation*: `a.merge(b, rng)` behaves as a sampler that
/// processed `a`'s stream followed by `b`'s. Under item-disjoint (hash)
/// partitioning this makes `k`-shard ingest + merge distributionally
/// equivalent to sequential ingest of the interleaved stream
/// (`tests/properties.rs` enforces this merge law).
///
/// Deliberately *not* a subtrait of [`StreamSampler`]: mergeability is
/// about combining states, not about which update type fed them, so
/// insertion-only and turnstile samplers implement the same trait. Code
/// that also needs to ingest bounds the ingest capability separately
/// (e.g. `MergeableSampler + UpdateSampler<U>`).
///
/// [`StreamSampler`]: crate::model::StreamSampler
pub trait MergeableSampler: Sized {
    /// Merges `other` into `self`, returning a sampler for the combined
    /// stream. `rng` supplies the coins of the randomized combined-state
    /// draw (implementations that need none ignore it).
    ///
    /// # Panics
    ///
    /// Implementations panic when the two instances are structurally
    /// incompatible (different instance counts, universes, exponents, …).
    fn merge(self, other: Self, rng: &mut dyn StreamRng) -> Self;

    /// Whether [`MergeableSampler::merge`] accepts these two instances —
    /// the non-panicking pre-check for the structural compatibility the
    /// merge otherwise asserts. Front-ends that accept *untrusted* state
    /// (snapshot restore) call this before ever merging, so a crafted input
    /// surfaces as a typed decode error instead of a query-time panic.
    /// Implementations must return `false` whenever `merge` would panic —
    /// deliberately a required method (not defaulted), so a new sampler
    /// family cannot silently opt out of the decode-time guard.
    fn merge_compatible(&self, other: &Self) -> bool;
}

/// A stream summary whose instances merge by counter arithmetic,
/// preserving the summary's guarantees over the concatenated stream.
pub trait MergeableSummary: Sized {
    /// Merges `other` into `self`.
    ///
    /// # Panics
    ///
    /// Implementations panic when the two instances are structurally
    /// incompatible (different dimensions, capacities, or hash functions).
    fn merge(self, other: Self) -> Self;
}
