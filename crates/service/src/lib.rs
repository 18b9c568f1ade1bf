//! # tps-service — the networked checkpointing ingest service
//!
//! The persistent runtime in `tps_core::runtime` scales ingest across
//! *threads*; this crate scales the same design across *processes* and
//! *sockets*. `k` worker processes each own one shard of a sampler (they
//! never see the full stream), a coordinator routes items with the exact
//! in-process routing function ([`tps_core::sharded::hash_route`]) and
//! drives the epoch/barrier discipline over a pluggable transport
//! ([`tps_streams::wire::transport`]) — stdin/stdout pipes or TCP — using
//! the versioned framed protocol in [`tps_streams::wire`]:
//!
//! * **Checkpoint barriers** make every worker append an incremental
//!   (delta) frame — [`tps_streams::codec::delta`] — to its on-disk chain
//!   and ack; the acks let the coordinator trim its replay records.
//!   Chains are garbage-collected after rebases ([`CheckpointStore::compact`]).
//! * **Query barriers** collect every worker's full sealed snapshot at a
//!   consistent cut through [`tps_core::runtime::barrier_all`], and the
//!   coordinator folds them with [`tps_core::sharded::fold_merge`] and the
//!   merge RNG seeded `seed ^ MERGE_SEED_SALT` — the code an in-process
//!   [`ShardedSampler`](tps_core::sharded::ShardedSampler) runs, so the
//!   merged answer is **byte-identical** to one over the same stream (the
//!   `reference` subcommand computes exactly that). A TCP
//!   **query plane** ([`query::QueryPlane`]) serves that answer to any
//!   number of concurrent clients ([`client::QueryClient`]) *while ingest
//!   runs*, off the barrier loop: checkpoint barriers publish their cut
//!   into a snapshot cache, cached queries are answered straight from it,
//!   and consistent queries cost one query barrier at the next chunk
//!   boundary. A client connection is a session: one handler thread
//!   answers every query the client sends on it, until the client hangs
//!   up or idles out. A wedged client blocks only its own session's
//!   detached handler thread, never a barrier (see `query.rs`).
//!
//! ## Failure semantics
//!
//! The coordinator records the stream position of every chunk it sends a
//! worker, tagged with the epoch of the last barrier *sent* before it; a
//! chunk tagged `t` is covered by any checkpoint with epoch `> t`. When a
//! checkpoint at epoch `E` is acked (the worker wrote the frame to disk
//! before acking), records tagged `< E` are dropped. When a worker dies,
//! the coordinator respawns (or re-dials) it; the fresh process replays
//! its on-disk chain, reports the recovered epoch in its `Hello`, and the
//! coordinator re-routes and re-sends exactly the parts the checkpoint
//! does not cover (tag `≥` recovered epoch). Re-ingesting those chunks on top of the
//! restored state reproduces the uninterrupted run's shard state byte for
//! byte — which the smoke test asserts end to end through the merged
//! query.
//!
//! The coordinator applies the same discipline to *itself*: before every
//! checkpoint barrier it appends a [`manifest::Manifest`] — spec, stream
//! cut, per-shard endpoints and replay parts, materialised from the
//! stream at persist time — to its own chain (fsync-before-barrier), so a SIGKILLed coordinator resumes with
//! [`coordinator::resume_job`] and finishes with a byte-identical final
//! query. See `manifest.rs` for the crash-consistency argument.
//!
//! Each link is flow-controlled under the in-process runtime's lead rule:
//! the coordinator ships a worker's part as pieces of at most
//! `RUNTIME_CHUNK` updates, follows every piece with a `Sync` barrier, and
//! ships the next piece only once at most `RING_CAPACITY` earlier ones are
//! unacked, so a worker never has more than three pieces queued and a
//! query barrier waits behind at most those.
//!
//! Jobs are described by a typed, codec-serializable [`JobSpec`] built
//! with [`ServiceBuilder`]; the CLI in `main.rs` is a thin parser over it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod config;
pub mod coordinator;
pub mod manifest;
pub mod query;
pub mod store;
pub mod worker;

pub use client::{QueryClient, QueryError};
pub use config::{
    DieSpec, FaultPlan, JobSpec, KillSpec, QueryPlan, SamplerKind, ServiceBuilder, TransportKind,
    WorkerConfig,
};
pub use coordinator::{resume_job, run_job, run_reference, QueryReport};
pub use query::{QueryPlane, QueryPlaneStats};
pub use store::CheckpointStore;
// The typed query surface is defined once in `tps_streams` and
// re-exported here: the same `QueryOptions`/`QuerySnapshot` pair drives
// `ShardedSampler::query`, `QueryClient::query` and the CLI.
pub use tps_streams::{QueryConsistency, QueryOptions, QuerySnapshot};
