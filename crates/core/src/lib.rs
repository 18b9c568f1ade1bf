//! # tps-core — Truly Perfect Samplers for Data Streams and Sliding Windows
//!
//! A Rust implementation of the samplers of Jayaram, Woodruff and Zhou,
//! *"Truly Perfect Samplers for Data Streams and Sliding Windows"*
//! (PODS 2022, arXiv:2108.12017).
//!
//! A `G`-sampler outputs a coordinate `i` of the stream's frequency vector
//! `f` with probability `(1 ± ε)·G(f_i)/Σ_j G(f_j) ± γ`. It is *perfect* when
//! `ε = 0` and `γ = 1/poly(n)`, and **truly perfect** when `ε = γ = 0`: the
//! conditional output distribution equals the target exactly. Truly perfect
//! samplers compose cleanly (no bias accumulation across repeated use), leak
//! nothing beyond the sampled index (perfect security), and stay correct
//! under adaptive re-querying.
//!
//! ## What this crate provides
//!
//! * [`engine`] — the skip-ahead reservoir engine shared by every
//!   timestamp-based sampler: reservoir slots, the skip-ahead replacement
//!   schedule, the shared suffix-count table (`O(1)` expected update time)
//!   and the amortised batch ingestion path, audited in one place.
//! * [`framework`] — the generic truly perfect `G`-sampler for insertion-only
//!   streams (Framework 1.3 / Theorem 3.1): a [`engine::SkipAheadEngine`]
//!   plus a telescoping rejection step driven by a certain normaliser `ζ`.
//! * [`lp`] — truly perfect `L_p` samplers for `p ∈ (0, 2]`
//!   (Theorems 1.4, 3.3–3.5), using a deterministic Misra–Gries normaliser
//!   for `p > 1`.
//! * [`mestimators`] — truly perfect samplers for the `L_1–L_2`, Fair, Huber
//!   (Corollary 3.6) and Tukey (Theorem 5.4) M-estimators.
//! * [`matrix`] — truly perfect row samplers for matrix norms
//!   (Theorem 3.7).
//! * [`sliding`] — sliding-window truly perfect `G`- and `L_p`-samplers
//!   (Theorem 4.1, Corollary 4.2, Algorithm 6).
//! * [`f0`] — truly perfect `F_0` (support) samplers (Theorem 5.2,
//!   Corollary 5.3) and the random-oracle comparator (Remark 5.1).
//! * [`random_order`] — collision-based truly perfect `L_2` and integer
//!   `p > 2` samplers for random-order streams (Theorems 1.6, 1.7).
//! * [`perfect_baselines`] — the *non*-truly-perfect comparators: a
//!   duplication/exponential-scaling perfect sampler in the style of
//!   Jayaram–Woodruff (FOCS 2018) and a configurable γ-additive reference
//!   sampler, used by the separation experiments.
//! * [`turnstile`] — the strict-turnstile multi-pass samplers (Theorem 1.5,
//!   Theorem D.3) and the equality-reduction harness behind the turnstile
//!   lower bound (Theorem 1.2).
//! * [`composition`] — the composition / privacy-drift harness from the
//!   paper's motivation: measuring how sampling error accumulates across
//!   many independent runs.
//! * [`sharded`] — the scatter-gather front-end: hash- or round-robin-
//!   partitioned parallel ingest across `k` shard instances, answered by
//!   query-time merging (`tps_streams::MergeableSampler`).
//! * [`runtime`] — the consistent-cut protocol under [`sharded`] and the
//!   ingest service: the `ShardLink` seam, the barrier collector
//!   `barrier_all`, and the in-thread `RingLink` (one long-lived worker
//!   per shard behind a bounded SPSC ring; a full ring parks the sender,
//!   no chunk is ever dropped).
//!
//! ## Quick example
//!
//! ```
//! use tps_core::lp::TrulyPerfectLpSampler;
//! use tps_streams::{SampleOutcome, StreamSampler};
//!
//! // A truly perfect L2 sampler over a universe of 1024 items.
//! let mut sampler = TrulyPerfectLpSampler::new(2.0, 1024, 0.05, 42);
//! for item in [3u64, 3, 3, 7, 7, 11] {
//!     sampler.update(item);
//! }
//! match sampler.sample() {
//!     SampleOutcome::Index(i) => println!("sampled coordinate {i}"),
//!     SampleOutcome::Empty => println!("empty stream"),
//!     SampleOutcome::Fail => println!("this run failed; retry with a fresh instance"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod composition;
pub mod engine;
pub mod f0;
pub mod framework;
pub mod lp;
pub mod matrix;
pub mod mestimators;
pub mod perfect_baselines;
pub mod random_order;
pub mod runtime;
pub mod sampler_unit;
pub mod sharded;
pub mod sliding;
pub mod turnstile;

pub use engine::SkipAheadEngine;
pub use framework::{MeasureNormalizer, RejectionNormalizer, TrulyPerfectGSampler};
pub use lp::TrulyPerfectLpSampler;
pub use runtime::RuntimeStats;
pub use sampler_unit::SamplerUnit;
pub use sharded::{
    hash_route, QueryCacheStats, ShardedSampler, ShardedSamplerBuilder, ShardingStrategy,
};
pub use turnstile::StrictTurnstileF0Sampler;
// The typed query surface is defined once in `tps_streams` and re-exported
// here so in-process callers of `ShardedSampler::query` need only this
// crate.
pub use tps_streams::{QueryConsistency, QueryOptions, QuerySnapshot};
