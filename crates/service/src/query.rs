//! The non-stalling query plane: a dedicated accept thread plus one
//! detached handler thread per client session, serving merged samples
//! from a shared **snapshot cache** so that no client — however slow to
//! read its reply — can ever hold up an ingest barrier.
//!
//! The accept thread parks in a blocking `accept`, so an idle plane costs
//! nothing and a dialling client is picked up at once; shutdown wakes it
//! by dialling the plane's own port. A failed `accept` (a connection
//! aborted while queued, a full descriptor table) is logged and the
//! thread keeps accepting: only shutdown ends it.
//!
//! ## Sessions
//!
//! A connection is a session
//! ([`QUERY_SESSION`](tps_streams::wire::caps::QUERY_SESSION)): its
//! handler sends one `Hello`, then answers `Query` after `Query` until
//! the client closes, so a client that dials once pays no dial, accept
//! or thread spawn per query. Each accepted socket carries a fixed idle
//! read deadline ([`IDLE_DEADLINE`]); a session that sends nothing for
//! that long is closed quietly, so an idle client holds a parked thread
//! for a bounded time, not for its whole life. A session reads frames of
//! at most [`QUERY_FRAME_CAP`] bytes: a client whose length prefix claims
//! more is disconnected before anything is allocated for the frame, so
//! an anonymous client cannot make the plane allocate the 64 MiB a
//! worker link allows.
//!
//! ## The published-cut slot
//!
//! The coordinator publishes every consistent cut it collects (the attach
//! cut taken before the plane is announced, checkpoint barriers upgraded
//! to `BarrierKind::CheckpointPublish`, plus every explicit query
//! barrier) into a versioned slot: an ArcSwap-style cell hand-rolled as
//! `Mutex<Arc<PublishedCut>>` — the lock is held
//! only for the pointer swap/clone, never across a merge or a socket
//! write, so it is uncontended in practice. `live_epoch` tracks the
//! newest published epoch; a query is served from the slot iff
//! `QueryOptions::admits(live_epoch, cut.epoch)`, as in-process.
//!
//! ## Consistent queries without stalling ingest
//!
//! A [`QueryConsistency::Consistent`] query (or a cached one whose bound
//! the slot cannot meet) posts a [`CutRequest`] to the coordinator over
//! an mpsc channel and blocks **in its own handler thread** on the
//! private reply channel. The ingest loop drains pending requests at
//! chunk boundaries: one query barrier (`tps_core::runtime::barrier_all`)
//! serves *all* of them with the same `Arc<PublishedCut>`. The barrier
//! itself never touches a client socket — a wedged client blocks only its
//! own session's detached thread.
//!
//! ## Merging off the barrier path
//!
//! Merge coins are deterministic (`seed ^ MERGE_SEED_SALT`, fresh per
//! merge), so *any* thread reproduces the canonical merged answer from a
//! cut's snapshots with `tps_core::sharded::fold_merge`. Handler threads
//! do their own merging, one merge at a time with the last result
//! memoized, keeping the coordinator's barrier loop free of restore/merge
//! work entirely. A cached query whose staleness bound admits the last
//! merged cut is answered from it at once, without waiting behind a merge
//! of a newer cut; the in-process cache serves its last merged cut the
//! same way.

use std::io::{self, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tps_streams::codec::CodecError;
use tps_streams::wire::transport::{
    poll_backoff, Connection, Listener, TcpConnection, TcpServerListener,
};
use tps_streams::wire::{reject, WireError, WireMessage};
use tps_streams::{QueryConsistency, QueryOptions};

use crate::config::SamplerKind;
use crate::coordinator::{merge_report, QueryReport};

/// One consistent cut, as collected by an ingest barrier: the per-shard
/// sealed snapshots plus the coordinates that pin where in the stream the
/// cut was taken. Shared between the ingest loop and every query handler
/// via `Arc` — snapshots are never copied per client.
#[derive(Debug)]
pub struct PublishedCut {
    /// The barrier epoch that produced the cut.
    pub epoch: u64,
    /// Chunks routed when the cut was taken.
    pub chunks_routed: u64,
    /// Stream items routed when the cut was taken (the prefix length).
    pub processed: u64,
    /// Per-shard sealed snapshots, in shard order.
    pub snapshots: Vec<Vec<u8>>,
}

/// A handler thread's demand for a fresh consistent cut, drained by the
/// ingest loop at the next chunk boundary. The reply channel is private
/// to the requesting handler; the coordinator answers every pending
/// request with the same `Arc`.
pub struct CutRequest {
    reply: Sender<Arc<PublishedCut>>,
}

impl CutRequest {
    /// Answers the request. A dead handler (client hung up) just drops
    /// the receiver; that is not the coordinator's problem.
    pub fn fulfil(self, cut: &Arc<PublishedCut>) {
        let _ = self.reply.send(Arc::clone(cut));
    }
}

/// Query-plane counters, all updated with relaxed atomics from handler
/// threads and snapshotted by [`QueryPlane::stats`]. The spirit of
/// `tps_core::RuntimeStats`, one layer up.
#[derive(Debug, Default)]
struct PlaneCounters {
    connections: AtomicU64,
    served: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    rejected: AtomicU64,
    oversized: AtomicU64,
    latency_total_micros: AtomicU64,
    latency_max_micros: AtomicU64,
}

/// A point-in-time copy of the plane's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryPlaneStats {
    /// Client connections accepted (one handler thread each).
    pub connections: u64,
    /// Queries answered with a `QueryReply`.
    pub served: u64,
    /// Cached queries answered straight from the published slot.
    pub cache_hits: u64,
    /// Cached queries whose staleness bound forced a consistent cut
    /// (plus every explicitly consistent query).
    pub cache_misses: u64,
    /// Queries answered with a typed `QueryRejected`.
    pub rejected: u64,
    /// Sessions ended because the client's length prefix declared a
    /// frame over [`QUERY_FRAME_CAP`].
    pub oversized: u64,
    /// Sum of per-query latencies, in microseconds.
    pub latency_total_micros: u64,
    /// Worst single-query latency, in microseconds.
    pub latency_max_micros: u64,
}

impl QueryPlaneStats {
    /// Mean per-query latency in microseconds (0 when nothing served).
    pub fn latency_mean_micros(&self) -> u64 {
        self.latency_total_micros
            .checked_div(self.served)
            .unwrap_or(0)
    }
}

/// State shared by the ingest loop, the accept thread and every handler.
struct Shared {
    kind: SamplerKind,
    seed: u64,
    /// The hand-rolled ArcSwap slot holding the newest published cut.
    slot: Mutex<Arc<PublishedCut>>,
    /// Serialises merges, so a cut's report is computed at most once
    /// however many clients ask (merging is deterministic).
    merging: Mutex<()>,
    /// The last merged report and the cut it answers for. Locked only to
    /// read or replace it, never across a merge.
    memo: Mutex<Option<(Arc<PublishedCut>, QueryReport)>>,
    /// Newest published barrier epoch.
    live_epoch: AtomicU64,
    /// Set by [`QueryPlane::finish`]; the accept thread exits and late
    /// escalations are rejected instead of queued.
    shutdown: AtomicBool,
    counters: PlaneCounters,
    /// Handler → coordinator demands for a fresh consistent cut.
    requests: Sender<CutRequest>,
}

impl Shared {
    fn load_slot(&self) -> Arc<PublishedCut> {
        Arc::clone(&self.slot.lock().expect("slot lock"))
    }

    /// The last merged cut and its report, without waiting for a merge
    /// in progress.
    fn memoized(&self) -> Option<(Arc<PublishedCut>, QueryReport)> {
        self.memo.lock().expect("memo lock").clone()
    }

    /// The canonical merged report for `cut`, memoized.
    fn merged(&self, cut: &Arc<PublishedCut>) -> io::Result<QueryReport> {
        let _merging = self.merging.lock().expect("merge lock");
        if let Some((memo, report)) = self.memoized() {
            if memo.epoch == cut.epoch {
                return Ok(report);
            }
        }
        let report = merge_report(self.kind, &cut.snapshots, self.seed, cut.processed)?;
        *self.memo.lock().expect("memo lock") = Some((Arc::clone(cut), report.clone()));
        Ok(report)
    }
}

/// How long shutdown waits for its wake-up dial to the plane's own port.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a session may wait for its client's next query before the
/// plane closes it. A client that comes back later redials.
pub const IDLE_DEADLINE: Duration = Duration::from_secs(30);

/// The largest frame a query session reads. A `Query` is a few dozen
/// bytes; worker links keep the 64 MiB `MAX_MESSAGE_LEN` for snapshot
/// acks, but a client never needs it.
pub const QUERY_FRAME_CAP: u32 = 64 << 10;

/// The coordinator's handle on the query plane. Constructed with
/// [`QueryPlane::start`]; fed via [`QueryPlane::publish`] and the
/// [`CutRequest`] channel; torn down with [`QueryPlane::finish`].
pub struct QueryPlane {
    shared: Arc<Shared>,
    requests: Receiver<CutRequest>,
    accept_thread: Option<JoinHandle<()>>,
    /// Where shutdown dials to wake the accept thread out of `accept`.
    wake_addr: SocketAddr,
}

impl QueryPlane {
    /// Binds `addr`, seeds the slot with `initial` (the cut the
    /// coordinator took when its workers attached, so the first cached
    /// queries never find the cache empty), announces
    /// `query-listening <bound-addr>` on stdout (flushed, so spawning
    /// tests can read it), and spawns the dedicated accept thread. Handler
    /// threads are detached: a client that wedges mid-reply leaks one
    /// parked thread, never a barrier.
    pub fn start(
        addr: &str,
        kind: SamplerKind,
        seed: u64,
        initial: PublishedCut,
    ) -> io::Result<Self> {
        let listener = TcpServerListener::bind(addr)
            .map_err(|e| io::Error::new(e.kind(), format!("query listener {addr}: {e}")))?;
        let bound = listener.local_addr()?;
        let mut wake_addr = bound;
        if bound.ip().is_unspecified() {
            wake_addr.set_ip(match bound {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let plane = Self::serve(listener, wake_addr, kind, seed, initial, IDLE_DEADLINE)?;
        println!("query-listening {bound}");
        io::stdout().flush()?;
        Ok(plane)
    }

    /// Spawns the accept thread over `listener`, whose connections
    /// `wake_addr` reaches and idle out after `idle_deadline`.
    fn serve<L>(
        listener: L,
        wake_addr: SocketAddr,
        kind: SamplerKind,
        seed: u64,
        initial: PublishedCut,
        idle_deadline: Duration,
    ) -> io::Result<Self>
    where
        L: Listener<Conn = TcpConnection> + Send + 'static,
    {
        let (requests_tx, requests_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            kind,
            seed,
            live_epoch: AtomicU64::new(initial.epoch),
            slot: Mutex::new(Arc::new(initial)),
            merging: Mutex::new(()),
            memo: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            counters: PlaneCounters::default(),
            requests: requests_tx,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("tps-query-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, idle_deadline))?;
        Ok(Self {
            shared,
            requests: requests_rx,
            accept_thread: Some(accept_thread),
            wake_addr,
        })
    }

    /// Publishes a consistent cut into the slot and advances the live
    /// epoch. Called by the ingest loop right after collecting barrier
    /// acks — the only synchronisation is the pointer swap.
    pub fn publish(&self, cut: PublishedCut) -> Arc<PublishedCut> {
        let cut = Arc::new(cut);
        *self.shared.slot.lock().expect("slot lock") = Arc::clone(&cut);
        self.shared.live_epoch.store(cut.epoch, Ordering::Release);
        cut
    }

    /// Drains every consistent-cut demand that is waiting right now,
    /// without blocking. The ingest loop calls this at chunk boundaries:
    /// a non-empty answer is worth exactly one query barrier.
    pub fn take_requests(&self) -> Vec<CutRequest> {
        let mut pending = Vec::new();
        while let Ok(request) = self.requests.try_recv() {
            pending.push(request);
        }
        pending
    }

    /// Blocks until at least one consistent-cut demand arrives, then
    /// drains the rest. Deterministic-test hook (`--await-query-after-chunks`):
    /// "a query landed at exactly this cut" becomes a fact, not a race.
    pub fn wait_for_request(&self) -> io::Result<Vec<CutRequest>> {
        let first = self.requests.recv().map_err(|_| {
            io::Error::new(
                io::ErrorKind::BrokenPipe,
                "query plane hung up while the coordinator awaited a query",
            )
        })?;
        let mut pending = vec![first];
        pending.extend(self.take_requests());
        Ok(pending)
    }

    /// A point-in-time copy of the plane's counters.
    pub fn stats(&self) -> QueryPlaneStats {
        let c = &self.shared.counters;
        QueryPlaneStats {
            connections: c.connections.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            oversized: c.oversized.load(Ordering::Relaxed),
            latency_total_micros: c.latency_total_micros.load(Ordering::Relaxed),
            latency_max_micros: c.latency_max_micros.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, joins the accept thread, and logs the counter
    /// summary to stderr. Handler threads are *not* joined — they hold
    /// only an `Arc` of shared state and their own socket, so a stalled
    /// client cannot delay job completion; late escalations get a typed
    /// `QueryRejected` because the request channel keeps working until
    /// the plane is dropped.
    pub fn finish(mut self) -> QueryPlaneStats {
        self.stop_accepting();
        let stats = self.stats();
        eprintln!(
            "query-plane: served={} cache_hits={} cache_misses={} rejected={} \
             latency_mean_us={} latency_max_us={} oversized={} connections={}",
            stats.served,
            stats.cache_hits,
            stats.cache_misses,
            stats.rejected,
            stats.latency_mean_micros(),
            stats.latency_max_micros,
            stats.oversized,
            stats.connections,
        );
        stats
    }

    /// Flags shutdown, wakes the accept thread out of its blocking
    /// `accept` by dialling the plane's own port, and joins it. Should the
    /// dial fail while the thread is still parked, it is left detached
    /// rather than hanging the job.
    fn stop_accepting(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        match TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT) {
            Err(e) if !handle.is_finished() => {
                eprintln!("query-plane: cannot wake the accept thread: {e}");
            }
            _ => {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for QueryPlane {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// The dedicated accept loop: parks in a blocking `accept` until a client
/// dials (or shutdown dials to wake it); each accepted client gets the
/// idle read deadline and a detached handler thread for its session. A
/// failed `accept` costs one backoff sleep, so an error that repeats (a
/// full descriptor table) cannot spin a core, and never ends the loop:
/// only shutdown (or a transport out of connections) does.
fn accept_loop<L>(mut listener: L, shared: Arc<Shared>, idle_deadline: Duration)
where
    L: Listener<Conn = TcpConnection>,
{
    let mut backoff = Duration::ZERO;
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            return; // the wake-up dial, or a client too late to serve
        }
        match accepted {
            Ok(Some(mut conn)) => {
                backoff = Duration::ZERO;
                conn.set_frame_cap(QUERY_FRAME_CAP);
                if let Err(e) = conn.set_read_timeout(Some(idle_deadline)) {
                    eprintln!("query-plane: cannot set the idle deadline: {e}");
                    continue;
                }
                let handler_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("tps-query-handler".into())
                    .spawn(move || handle_client(conn, handler_shared));
                match spawned {
                    Ok(_) => {
                        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => eprintln!("query-plane: cannot spawn handler: {e}"),
                }
            }
            Ok(None) => return,
            Err(e) => {
                backoff = poll_backoff(backoff);
                eprintln!("query-plane: accept failed: {e}; retrying in {backoff:?}");
                std::thread::sleep(backoff);
            }
        }
    }
}

/// Serves one client session end to end in its own thread. Errors are
/// logged, never propagated — a broken client is its own problem.
fn handle_client<C: Connection>(mut conn: C, shared: Arc<Shared>) {
    if let Err(e) = serve_one(&mut conn, &shared) {
        eprintln!("query-plane: client failed: {e}");
    }
}

/// One session: the plane's `Hello` once, then a reply per `Query` until
/// the client hangs up or the idle deadline expires, both of which end
/// the session quietly. A frame prefix over [`QUERY_FRAME_CAP`] ends it
/// with an error, counted as `oversized`.
fn serve_one<C: Connection>(conn: &mut C, shared: &Shared) -> io::Result<()> {
    // The client checks this Hello's protocol version and capability bits
    // before it trusts a reply; its first query may already be queued.
    let live = shared.live_epoch.load(Ordering::Acquire);
    conn.send(&WireMessage::hello(0, live))?;
    loop {
        let options = match conn.recv() {
            Ok(Some(WireMessage::Query { options })) => options,
            Ok(Some(other)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("query client sent {other:?}"),
                ))
            }
            Ok(None) => return Ok(()), // hung up between queries
            // The idle deadline (`WouldBlock` or `TimedOut` by platform).
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(())
            }
            // Only the prefix check reports the cap itself as what is left:
            // a frame within the cap holds fewer bytes than the cap.
            Err(e @ WireError::Codec(CodecError::Truncated { remaining, .. }))
                if remaining == u64::from(QUERY_FRAME_CAP) =>
            {
                shared.counters.oversized.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        };
        serve_query(conn, shared, &options)?;
    }
}

/// Answers one query: from the published slot when its staleness bound
/// admits it, otherwise from a fresh consistent cut, or a typed rejection
/// when the job can no longer take one.
fn serve_query<C: Connection>(
    conn: &mut C,
    shared: &Shared,
    options: &QueryOptions,
) -> io::Result<()> {
    let start = Instant::now();
    let live = shared.live_epoch.load(Ordering::Acquire);
    let slot = shared.load_slot();
    let (cut, cached) = if options.admits(live, slot.epoch) {
        (slot, true)
    } else if let Some(cut) = request_cut(shared) {
        // Consistent, or too stale: a fresh consistent cut.
        (cut, false)
    } else {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        let (code, detail) = match options.consistency {
            QueryConsistency::Cached { max_epochs_stale } => (
                reject::STALE,
                format!(
                    "no published cut within {max_epochs_stale} epochs of live epoch {live}, \
                     and the job is no longer running"
                ),
            ),
            QueryConsistency::Consistent => (
                reject::CLOSED,
                "the job is no longer running; no consistent cut available".into(),
            ),
        };
        return conn.send(&WireMessage::QueryRejected { code, detail });
    };

    if cached {
        shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    // Merge in *this* thread (memoized): the barrier loop never restores
    // or merges for the query plane. A cached query whose bound admits the
    // last merged cut takes it rather than wait for a merge in progress.
    let (cut, report) = match shared.memoized() {
        Some((memo, report)) if cached && options.admits(live, memo.epoch) => (memo, report),
        _ => {
            let report = shared.merged(&cut)?;
            (cut, report)
        }
    };
    conn.send(&WireMessage::QueryReply {
        processed: report.processed,
        merged_fnv: report.merged_fnv,
        epoch: cut.epoch,
        cut: cut.chunks_routed,
        cached,
        sample: report.sample,
    })?;

    let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let c = &shared.counters;
    c.served.fetch_add(1, Ordering::Relaxed);
    c.latency_total_micros.fetch_add(micros, Ordering::Relaxed);
    c.latency_max_micros.fetch_max(micros, Ordering::Relaxed);
    eprintln!(
        "query-plane: served epoch={} cut={} cached={} latency_us={}",
        cut.epoch, cut.chunks_routed, cached, micros
    );
    Ok(())
}

/// Posts a consistent-cut demand to the ingest loop and blocks (in the
/// handler's thread only) until it is fulfilled at the next chunk
/// boundary. `None` when the coordinator is gone or shutting down.
fn request_cut(shared: &Shared) -> Option<Arc<PublishedCut>> {
    if shared.shutdown.load(Ordering::Acquire) {
        // The final cut is always published before shutdown; a cached
        // query already found the slot unsatisfiable, and no new barrier
        // will ever run.
        return None;
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    shared.requests.send(CutRequest { reply: reply_tx }).ok()?;
    reply_rx.recv().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ephemeral-port plane; the full socket conversation is covered
    /// by the smoke suite, so these unit tests exercise the slot,
    /// staleness and request-channel logic directly.
    fn plane_for_test() -> QueryPlane {
        QueryPlane::start("127.0.0.1:0", SamplerKind::L2, 7, cut(1)).unwrap()
    }

    /// A one-shard cut holding a fresh L2 sampler's snapshot.
    fn cut(epoch: u64) -> PublishedCut {
        use tps_streams::codec::Snapshot as _;
        PublishedCut {
            epoch,
            chunks_routed: epoch * 3,
            processed: epoch * 3_000,
            snapshots: vec![crate::config::make_l2(1 << 12, 7, 0).snapshot()],
        }
    }

    #[test]
    fn publish_advances_the_live_epoch_and_the_slot() {
        let plane = plane_for_test();
        // The attach cut is served from the start.
        assert_eq!(plane.shared.load_slot().epoch, 1);
        assert_eq!(plane.shared.live_epoch.load(Ordering::Acquire), 1);
        for epoch in [4, 9] {
            let published = plane.publish(cut(epoch));
            assert_eq!(published.epoch, epoch);
            assert_eq!(plane.shared.load_slot().epoch, epoch);
            assert_eq!(plane.shared.live_epoch.load(Ordering::Acquire), epoch);
        }
        plane.finish();
    }

    #[test]
    fn idle_plane_finishes_promptly() {
        // Whether the accept thread is already parked in `accept` or not
        // yet there, the wake-up dial releases it.
        let plane = plane_for_test();
        let start = Instant::now();
        plane.finish();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "finish took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn staleness_decision_matches_the_bound() {
        let plane = plane_for_test();
        plane.publish(cut(5));
        // The live epoch three barriers on, set directly: every barrier
        // that moves it also publishes.
        plane.shared.live_epoch.store(8, Ordering::Release);
        let live = plane.shared.live_epoch.load(Ordering::Acquire);
        let slot = plane.shared.load_slot();
        // A lag of exactly 3: a bound of 3 serves the slot, a bound of 2
        // escalates, and a consistent query never takes the slot.
        assert!(QueryOptions::cached(3).admits(live, slot.epoch));
        assert!(!QueryOptions::cached(2).admits(live, slot.epoch));
        assert!(!QueryOptions::consistent().admits(live, slot.epoch));
        plane.finish();
    }

    #[test]
    fn cut_requests_round_trip_through_the_channel() {
        let plane = plane_for_test();
        let shared = Arc::clone(&plane.shared);
        let asker = std::thread::spawn(move || request_cut(&shared).map(|c| c.epoch));
        // The ingest loop's side: block for the demand, serve it with a
        // published cut.
        let pending = plane.wait_for_request().unwrap();
        assert_eq!(pending.len(), 1);
        let published = plane.publish(cut(2));
        for request in pending {
            request.fulfil(&published);
        }
        assert_eq!(asker.join().unwrap(), Some(2));
        // After shutdown, demands are refused instead of queued forever.
        let stats = plane.finish();
        assert_eq!(stats.served, 0, "no socket clients in this test");
    }

    /// A listener whose first `accept` fails the way accept(2) may
    /// (`ECONNABORTED`: a queued connection was reset before it was
    /// taken), then hands out real connections.
    struct FailingOnce {
        inner: TcpServerListener,
        failed: bool,
    }

    impl Listener for FailingOnce {
        type Conn = <TcpServerListener as Listener>::Conn;

        fn accept(&mut self) -> io::Result<Option<Self::Conn>> {
            if !self.failed {
                self.failed = true;
                return Err(io::ErrorKind::ConnectionAborted.into());
            }
            self.inner.accept()
        }
    }

    #[test]
    fn accept_loop_survives_a_failed_accept() {
        use tps_streams::wire::transport::tcp_connect;

        let inner = TcpServerListener::bind("127.0.0.1:0").unwrap();
        let addr = inner.local_addr().unwrap();
        let listener = FailingOnce {
            inner,
            failed: false,
        };
        let plane =
            QueryPlane::serve(listener, addr, SamplerKind::L2, 7, cut(3), IDLE_DEADLINE).unwrap();
        // The first accept fails before this client is taken; the loop
        // must keep accepting and serve it (server-first Hello).
        let mut client = tcp_connect(addr).unwrap();
        match client.recv().unwrap() {
            Some(WireMessage::Hello { resume_epoch, .. }) => assert_eq!(resume_epoch, 3),
            other => panic!("expected the plane's hello, got {other:?}"),
        }
        drop(client);
        plane.finish();
    }

    /// A connection that replays a fixed script of inbound results and
    /// records what the plane sends; an exhausted script reads as EOF.
    struct Scripted {
        inbound: std::collections::VecDeque<Result<Option<WireMessage>, WireError>>,
        sent: Vec<WireMessage>,
    }

    impl Connection for Scripted {
        fn send(&mut self, msg: &WireMessage) -> io::Result<()> {
            self.sent.push(msg.clone());
            Ok(())
        }

        fn recv(&mut self) -> Result<Option<WireMessage>, WireError> {
            self.inbound.pop_front().unwrap_or(Ok(None))
        }
    }

    fn query_turn() -> Result<Option<WireMessage>, WireError> {
        Ok(Some(WireMessage::Query {
            options: QueryOptions::cached(0),
        }))
    }

    #[test]
    fn a_session_answers_each_query_after_one_hello_and_ends_quietly() {
        let plane = plane_for_test();
        // The idle deadline (either error kind), then a hang-up.
        for end in [
            Some(io::ErrorKind::WouldBlock),
            Some(io::ErrorKind::TimedOut),
            None,
        ] {
            let last = match end {
                Some(kind) => Err(WireError::Io(kind.into())),
                None => Ok(None),
            };
            let mut conn = Scripted {
                inbound: [query_turn(), query_turn(), last].into(),
                sent: Vec::new(),
            };
            serve_one(&mut conn, &plane.shared)
                .unwrap_or_else(|e| panic!("{end:?} must end the session quietly: {e}"));
            assert!(matches!(conn.sent[0], WireMessage::Hello { .. }));
            assert_eq!(conn.sent.len(), 3, "one Hello, then one reply per query");
            for reply in &conn.sent[1..] {
                assert!(
                    matches!(
                        reply,
                        WireMessage::QueryReply {
                            epoch: 1,
                            cached: true,
                            ..
                        }
                    ),
                    "{reply:?}"
                );
            }
        }
        assert_eq!(plane.finish().served, 6);
    }

    /// A cached query whose bound admits the last merged cut is answered
    /// from it at once, even while a newer cut is being merged; a tighter
    /// bound waits for that merge and gets the newer cut.
    #[test]
    fn a_cached_query_does_not_wait_behind_a_merge() {
        let plane = plane_for_test();
        plane.shared.merged(&plane.shared.load_slot()).unwrap();
        plane.publish(cut(2));
        let session = |max_epochs_stale| {
            let shared = Arc::clone(&plane.shared);
            let (sent_tx, sent_rx) = mpsc::channel();
            std::thread::spawn(move || {
                let mut conn = Scripted {
                    inbound: [Ok(Some(WireMessage::Query {
                        options: QueryOptions::cached(max_epochs_stale),
                    }))]
                    .into(),
                    sent: Vec::new(),
                };
                serve_one(&mut conn, &shared).unwrap();
                let _ = sent_tx.send(conn.sent.pop().unwrap());
            });
            sent_rx
        };
        // A merge of cut 2 in progress.
        let merging = plane.shared.merging.lock().unwrap();
        let stale_ok = session(1)
            .recv_timeout(Duration::from_secs(5))
            .expect("the cached query waited behind the merge");
        assert!(
            matches!(stale_ok, WireMessage::QueryReply { epoch: 1, .. }),
            "{stale_ok:?}"
        );
        let fresh = session(0);
        assert!(fresh.recv_timeout(Duration::from_millis(200)).is_err());
        drop(merging);
        let fresh = fresh.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            matches!(fresh, WireMessage::QueryReply { epoch: 2, .. }),
            "{fresh:?}"
        );
        plane.finish();
    }

    #[test]
    fn a_broken_session_is_an_error() {
        let plane = plane_for_test();
        let mut conn = Scripted {
            inbound: [query_turn(), Ok(Some(WireMessage::Shutdown))].into(),
            sent: Vec::new(),
        };
        let err = serve_one(&mut conn, &plane.shared).unwrap_err();
        assert!(err.to_string().contains("Shutdown"), "{err}");
        assert_eq!(conn.sent.len(), 2, "the query before the junk was served");
        plane.finish();
    }

    #[test]
    fn an_idle_session_is_closed_at_the_deadline() {
        use tps_streams::wire::transport::tcp_connect;

        let listener = TcpServerListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let idle = Duration::from_millis(200);
        let plane = QueryPlane::serve(listener, addr, SamplerKind::L2, 7, cut(1), idle).unwrap();
        let mut client = tcp_connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let query = WireMessage::Query {
            options: QueryOptions::cached(0),
        };
        client.send(&query).unwrap();
        assert!(matches!(
            client.recv().unwrap(),
            Some(WireMessage::Hello { .. })
        ));
        // Two turns on one connection, the second without a Hello.
        for _ in 0..2 {
            match client.recv().unwrap() {
                Some(WireMessage::QueryReply { epoch: 1, .. }) => {}
                other => panic!("expected a reply, got {other:?}"),
            }
            client.send(&query).unwrap();
        }
        match client.recv().unwrap() {
            Some(WireMessage::QueryReply { epoch: 1, .. }) => {}
            other => panic!("expected a reply, got {other:?}"),
        }
        // Then silence: the plane hangs up once the deadline passes.
        let silent = Instant::now();
        assert!(client.recv().unwrap().is_none(), "the plane closes");
        assert!(
            silent.elapsed() >= idle / 2,
            "closed after {:?}",
            silent.elapsed()
        );
        let stats = plane.finish();
        assert_eq!((stats.connections, stats.served), (1, 3));
    }

    /// A raw client that declares a 64 MiB frame has its session ended at
    /// the prefix, before the plane allocates for it; the plane counts it
    /// and still serves the next client.
    #[test]
    fn an_oversized_frame_prefix_ends_only_its_session() {
        use std::io::Read as _;
        use tps_streams::wire::read_message;
        use tps_streams::wire::transport::tcp_connect;

        let plane = plane_for_test();
        let mut raw = TcpStream::connect(plane.wake_addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        raw.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
        // The plane's Hello, then the end of the session, well inside the
        // read timeout.
        let mut received = Vec::new();
        match raw.read_to_end(&mut received) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("the session did not end: {e}"),
        }
        assert!(matches!(
            read_message(&mut received.as_slice()),
            Ok(Some(WireMessage::Hello { .. }))
        ));

        let mut client = tcp_connect(plane.wake_addr).unwrap();
        client
            .send(&WireMessage::Query {
                options: QueryOptions::cached(0),
            })
            .unwrap();
        assert!(matches!(
            client.recv().unwrap(),
            Some(WireMessage::Hello { .. })
        ));
        assert!(matches!(
            client.recv().unwrap(),
            Some(WireMessage::QueryReply { epoch: 1, .. })
        ));
        drop(client);
        let stats = plane.finish();
        assert_eq!(
            (stats.oversized, stats.served, stats.connections),
            (1, 1, 2)
        );
    }

    #[test]
    fn shutdown_refuses_new_cut_requests() {
        let plane = plane_for_test();
        let shared = Arc::clone(&plane.shared);
        plane.finish();
        assert!(request_cut(&shared).is_none());
    }
}
