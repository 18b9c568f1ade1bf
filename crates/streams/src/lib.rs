//! # tps-streams
//!
//! The data-stream model underlying the `truly-perfect-samplers` workspace.
//!
//! This crate contains everything the samplers of Jayaram, Woodruff and Zhou
//! (PODS 2022) assume about their input but do not themselves implement:
//!
//! * the update types and stream-model traits ([`update`], [`model`]),
//! * the mergeability contracts behind the sharded scatter-gather
//!   front-end ([`merge`]),
//! * exact frequency vectors and the *target* sampling distributions that a
//!   truly perfect sampler must hit exactly ([`frequency`]),
//! * the measure functions `G` (Lp moments, M-estimators, concave functions)
//!   with the per-increment bounds `ζ` that drive the framework's rejection
//!   step ([`measure`]),
//! * synthetic workload generators standing in for the network / database /
//!   IoT streams that motivate the paper ([`generators`]),
//! * statistical utilities for comparing empirical sample distributions
//!   against the exact target (total-variation distance, χ² statistics,
//!   composition-bias measurements) ([`stats`]),
//! * the framed coordinator↔worker control protocol of the cross-process
//!   ingest service ([`wire`]),
//! * the typed query surface — consistency levels, options, reply
//!   envelope — shared by every query front door ([`query`]), and
//! * a tiny space-accounting trait so every data structure in the workspace
//!   can report measured memory to the benchmark harness ([`space`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod codec;
pub mod fasthash;
pub mod frequency;
pub mod generators;
pub mod measure;
pub mod merge;
pub mod model;
pub mod query;
pub mod space;
pub mod stats;
pub mod update;
pub mod wire;

pub use batch::{aggregate_in_order, for_each_run};
pub use codec::{CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
pub use fasthash::{FastHashMap, FastHashSet};
pub use frequency::FrequencyVector;
pub use measure::{CappedCount, ConcaveLog, Fair, Huber, Lp, MeasureFn, Tukey, L1L2};
pub use merge::{MergeableSampler, MergeableSummary};
pub use model::{
    Estimator, MatrixSampler, SampleOutcome, SlidingWindowSampler, StreamSampler, TurnstileSampler,
    UpdateSampler,
};
pub use query::{QueryConsistency, QueryOptions, QuerySnapshot};
pub use space::SpaceUsage;
pub use update::{Item, MatrixUpdate, SignedUpdate, StreamUpdate, Timestamp, WindowSpec};
