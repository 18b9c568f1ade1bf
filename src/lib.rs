//! # truly-perfect-samplers
//!
//! Facade crate for the workspace reproducing Jayaram, Woodruff and Zhou,
//! *"Truly Perfect Samplers for Data Streams and Sliding Windows"*
//! (PODS 2022). It re-exports the six sub-crates under stable module names
//! so applications can depend on one crate:
//!
//! ```
//! use truly_perfect_samplers::core::lp::TrulyPerfectLpSampler;
//! use truly_perfect_samplers::streams::{SampleOutcome, StreamSampler};
//!
//! let mut sampler = TrulyPerfectLpSampler::new(2.0, 1024, 0.05, 42);
//! sampler.update_batch(&[3, 3, 3, 7, 7, 11]);
//! assert!(!matches!(sampler.sample(), SampleOutcome::Empty));
//! ```
//!
//! The parallel front door is builder-first, and queries go through the
//! typed [`QueryOptions`] surface — the same options drive the in-process
//! [`ShardedSampler::query`], the networked [`QueryClient`] and the
//! `tps-service query` CLI:
//!
//! ```
//! use truly_perfect_samplers::{
//!     restore_bytes, snapshot_bytes, QueryOptions, ShardedSampler, ShardedSamplerBuilder,
//!     StreamSampler, TrulyPerfectLpSampler,
//! };
//!
//! let mut sharded = ShardedSamplerBuilder::new(4)
//!     .seed(42)
//!     .build(|shard| TrulyPerfectLpSampler::new(2.0, 1024, 0.05, 42 ^ ((shard as u64) << 32)));
//! sharded.update_batch(&[3, 3, 3, 7, 7, 11]);
//!
//! // A consistent query folds the shards fresh; a cached query reuses
//! // the last published merge while it is within the staleness bound.
//! let fresh = sharded.query(&QueryOptions::consistent());
//! let cached = sharded.query(&QueryOptions::cached(2));
//! assert!(cached.cached && cached.epoch == fresh.epoch);
//!
//! // Checkpoint and restore through the top-level helpers.
//! let bytes = snapshot_bytes(&sharded);
//! let replica: ShardedSampler<TrulyPerfectLpSampler> = restore_bytes(&bytes).unwrap();
//! assert_eq!(snapshot_bytes(&replica), bytes);
//! ```
//!
//! See `crates/README.md` for the crate dependency DAG, the map from
//! modules to paper theorems, and the cross-process ingest service
//! (`tps-service`) built on these pieces — including the non-stalling
//! TCP query plane its coordinator serves ([`QueryClient`] dials it).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use tps_core as core;
pub use tps_random as random;
pub use tps_service as service;
pub use tps_sketches as sketches;
pub use tps_streams as streams;
pub use tps_window as window;

pub use tps_core::lp::TrulyPerfectLpSampler;
pub use tps_core::{
    hash_route, QueryCacheStats, RuntimeStats, ShardedSampler, ShardedSamplerBuilder,
    ShardingStrategy, StrictTurnstileF0Sampler, TrulyPerfectGSampler,
};
// The typed query surface (shared by `ShardedSampler::query`, the
// networked `QueryClient` and the CLI) plus the client itself.
pub use tps_service::{QueryClient, QueryError, QueryReport};
pub use tps_streams::codec::migrate::upgrade_to_current;
pub use tps_streams::{
    CodecError, MergeableSampler, MergeableSummary, Restore, SampleOutcome, SignedUpdate,
    SlidingWindowSampler, Snapshot, StreamSampler, TurnstileSampler,
};
pub use tps_streams::{QueryConsistency, QueryOptions, QuerySnapshot};

/// Seals `component`'s complete logical state as a versioned, checksummed
/// snapshot — the facade spelling of [`Snapshot::snapshot`], so callers
/// don't need the trait in scope to checkpoint.
pub fn snapshot_bytes<T: Snapshot>(component: &T) -> Vec<u8> {
    component.snapshot()
}

/// Rebuilds a component from bytes produced by [`snapshot_bytes`] — the
/// facade spelling of [`Restore::restore`]. Bytes sealed under an older
/// supported format version are converted through [`upgrade_to_current`]
/// automatically; only an unknown (e.g. future) version fails with
/// [`CodecError::UnsupportedVersion`].
pub fn restore_bytes<T: Restore>(bytes: &[u8]) -> Result<T, CodecError> {
    match T::restore(bytes) {
        Err(CodecError::UnsupportedVersion { .. }) => T::restore(&upgrade_to_current(bytes)?),
        result => result,
    }
}
