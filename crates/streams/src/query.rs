//! The unified typed query surface shared by every query entry point.
//!
//! The paper's headline property is that a truly perfect sample is
//! available *at any query point*; this module types what "query point"
//! means so all three front doors — `ShardedSampler::query()` in-process,
//! the service's `QueryClient`, and the `tps-service query` subcommand —
//! speak the same vocabulary:
//!
//! * [`QueryConsistency`] picks between the two service levels. A
//!   **consistent** query forces a fresh cut (an epoch barrier in the
//!   service, a fold-merge in-process) and is byte-identical to the
//!   reference merge at that cut. A **cached** query is answered from the
//!   last published cut when that cut is at most `max_epochs_stale`
//!   epochs behind the live barrier — no barrier, no merge, no waiting on
//!   ingest.
//! * [`QueryOptions`] is the request: just the consistency level today,
//!   but a struct so future knobs ride the same surface.
//! * [`QuerySnapshot`] is the reply envelope: the answer plus the cut it
//!   was drawn at (`epoch`, `cut`) and whether a cache served it.
//!
//! Staleness is measured in **epochs** (barrier generations), not wall
//! time: `Cached { max_epochs_stale: 0 }` accepts only the cut of the
//! *current* epoch, `1` tolerates one barrier of lag, and so on. A server
//! whose newest published cut is staler than the bound escalates to the
//! consistent path rather than answering stale — cached mode bounds
//! staleness, it never violates it.

/// How fresh a query's answer must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryConsistency {
    /// Force a fresh consistent cut: an epoch barrier across all shards
    /// (service) or a fresh fold-merge (in-process). Byte-identical to
    /// the reference merge at the cut. This is the default.
    #[default]
    Consistent,
    /// Serve from the last published cut if it is at most
    /// `max_epochs_stale` epochs behind the live barrier; escalate to the
    /// consistent path otherwise.
    Cached {
        /// Maximum tolerated lag, in epochs, between the live barrier and
        /// the cut that answers the query. `0` = only the current
        /// epoch's cut.
        max_epochs_stale: u64,
    },
}

/// A typed query request: what every query front door accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryOptions {
    /// The consistency level ([`QueryConsistency::Consistent`] by
    /// default).
    pub consistency: QueryConsistency,
}

impl QueryOptions {
    /// A consistent-cut query (the default).
    pub fn consistent() -> Self {
        QueryOptions {
            consistency: QueryConsistency::Consistent,
        }
    }

    /// A cached query tolerating at most `max_epochs_stale` epochs of lag.
    pub fn cached(max_epochs_stale: u64) -> Self {
        QueryOptions {
            consistency: QueryConsistency::Cached { max_epochs_stale },
        }
    }

    /// Whether a cut published at `cut_epoch` may answer this query while
    /// the live epoch is `live_epoch`: never for a consistent query, and
    /// for a cached one iff the cut lags by at most `max_epochs_stale`
    /// epochs. The one staleness rule of every query front door.
    pub fn admits(&self, live_epoch: u64, cut_epoch: u64) -> bool {
        match self.consistency {
            QueryConsistency::Consistent => false,
            QueryConsistency::Cached { max_epochs_stale } => {
                live_epoch.saturating_sub(cut_epoch) <= max_epochs_stale
            }
        }
    }
}

/// A query answer pinned to the cut it was drawn at.
///
/// `T` is whatever the front door answers with: the service replies with
/// its merged `QueryReport`, `ShardedSampler::query()` with the merged
/// sampler itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySnapshot<T> {
    /// The answer, drawn at the cut below.
    pub value: T,
    /// The barrier epoch of the cut that produced the answer.
    pub epoch: u64,
    /// The cut position: chunks routed at the barrier (service) or
    /// updates routed (in-process).
    pub cut: u64,
    /// Whether a published cache served the answer (`true`) or a fresh
    /// consistent cut was forced (`false`).
    pub cached: bool,
}

impl<T> QuerySnapshot<T> {
    /// Maps the answer, keeping the cut metadata.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> QuerySnapshot<U> {
        QuerySnapshot {
            value: f(self.value),
            epoch: self.epoch,
            cut: self.cut,
            cached: self.cached,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        assert_eq!(
            QueryOptions::default().consistency,
            QueryConsistency::Consistent
        );
        assert_eq!(QueryOptions::consistent(), QueryOptions::default());
        assert!(!QueryOptions::default().admits(5, 5));
    }

    #[test]
    fn cached_carries_its_staleness_bound() {
        let opts = QueryOptions::cached(3);
        assert_eq!(
            opts.consistency,
            QueryConsistency::Cached {
                max_epochs_stale: 3
            }
        );
        assert!(opts.admits(8, 5));
        assert!(!opts.admits(9, 5));
    }

    #[test]
    fn snapshot_map_keeps_the_cut() {
        let snap = QuerySnapshot {
            value: 21u64,
            epoch: 4,
            cut: 12,
            cached: true,
        };
        let doubled = snap.map(|v| v * 2);
        assert_eq!(doubled.value, 42);
        assert_eq!((doubled.epoch, doubled.cut, doubled.cached), (4, 12, true));
    }
}
