//! The query-plane client: dial a coordinator's query listener, ask for
//! a merged sample at a chosen consistency level, get a typed answer
//! back. [`QueryClient`] is the one client surface (connect timeout,
//! dial retry with backoff, read timeout, typed [`QueryError`]).
//!
//! The plane leads with its `Hello`, and the client verifies the protocol
//! version and — for cached queries — the [`caps::CACHED_QUERY`]
//! capability bit before it trusts any reply. On a fresh connection it
//! sends its [`WireMessage::Query`] at once, without waiting for that
//! `Hello`: a connection whose handshake completes while the plane closes
//! its listener (at job end) can be dropped by the server's kernel
//! without a reset (Linux counts it under `ListenDrops`), and a client
//! that only listens would then wait out its whole read timeout. A client
//! that has sent bytes gets the reset at once. The reply is either a
//! `QueryReply` (mapped to [`QuerySnapshot<QueryReport>`], pinning the
//! epoch/cut that produced it) or a typed `QueryRejected` (mapped to
//! [`QueryError::Stale`] / [`QueryError::Closed`]).
//!
//! ## Sessions
//!
//! When the plane's `Hello` carries [`caps::QUERY_SESSION`], the client
//! keeps the connection (and that `Hello`) after a successful reply and
//! sends its next query on it, checking the stored `Hello` against that
//! query's required bits. The rules that keep this safe:
//!
//! * Only a connection whose last turn ended in a `QueryReply` is kept.
//!   After any error — a timeout, a rejection, a protocol failure — it is
//!   dropped, so a late reply can never answer a later query.
//! * A kept connection that turns out dead (a send error, EOF or a reset
//!   before the reply: the plane closed it at its idle deadline, or went
//!   away) is redialled once, transparently. A timeout is never retried.
//! * One query at a time uses the kept connection; a concurrent query on
//!   the same client (or a clone) dials its own.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use tps_streams::wire::transport::{tcp_framed, Connection, TcpConnection};
use tps_streams::wire::{caps, check_hello, reject, WireError, WireMessage};
use tps_streams::{QueryConsistency, QueryOptions, QuerySnapshot};

use crate::coordinator::QueryReport;

/// What can go wrong between a query client and the plane, spelled out —
/// no more fishing connection failures out of a bare `io::Error`.
#[derive(Debug)]
pub enum QueryError {
    /// Every dial attempt failed; `last` is the final attempt's error.
    Dial {
        /// How many times the client tried to connect.
        attempts: u32,
        /// The last connection error observed.
        last: io::Error,
    },
    /// The read timeout expired while waiting for the reply.
    Timeout {
        /// The configured read timeout that expired.
        after: Duration,
    },
    /// The plane rejected a cached query: no published cut satisfied the
    /// staleness bound and no consistent cut could be taken.
    Stale {
        /// The plane's human-readable explanation.
        detail: String,
    },
    /// The plane rejected the query because the job is no longer running.
    Closed {
        /// The plane's human-readable explanation.
        detail: String,
    },
    /// The peer spoke the wire protocol wrong (version/capability
    /// mismatch, unexpected message, truncated reply).
    Protocol(String),
    /// Any other transport-level failure.
    Io(io::Error),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Dial { attempts, last } => {
                write!(
                    f,
                    "cannot reach the query plane after {attempts} attempts: {last}"
                )
            }
            QueryError::Timeout { after } => {
                write!(f, "no reply within {}ms", after.as_millis())
            }
            QueryError::Stale { detail } => write!(f, "query rejected as stale: {detail}"),
            QueryError::Closed { detail } => write!(f, "query plane closed: {detail}"),
            QueryError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            QueryError::Io(e) => write!(f, "query transport failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Builder-first client for the coordinator's query plane.
///
/// ```no_run
/// use std::time::Duration;
/// use tps_service::client::QueryClient;
/// use tps_service::QueryOptions;
///
/// let client = QueryClient::new("127.0.0.1:7070")
///     .connect_timeout(Duration::from_millis(500))
///     .dial_attempts(5)
///     .read_timeout(Duration::from_secs(2));
/// let snapshot = client.query(&QueryOptions::cached(2))?;
/// println!("epoch {} (cached: {}): {}", snapshot.epoch, snapshot.cached, snapshot.value);
/// # Ok::<(), tps_service::client::QueryError>(())
/// ```
pub struct QueryClient {
    addr: String,
    connect_timeout: Duration,
    dial_attempts: u32,
    read_timeout: Option<Duration>,
    /// The kept connection to a session-capable plane (module docs).
    session: Mutex<Option<Session>>,
}

/// An open connection plus the `Hello` the plane sent on it.
struct Session {
    conn: TcpConnection,
    hello: WireMessage,
}

/// How a turn on a connection failed.
enum TurnError {
    /// The connection was gone before any reply arrived: a send error,
    /// EOF or a reset. A kept connection is redialled once.
    Dead(QueryError),
    /// Anything else, a timeout included; never retried.
    Failed(QueryError),
}

impl TurnError {
    fn into_error(self) -> QueryError {
        match self {
            TurnError::Dead(e) | TurnError::Failed(e) => e,
        }
    }
}

impl Clone for QueryClient {
    /// The same settings, with no connection of its own yet.
    fn clone(&self) -> Self {
        Self {
            addr: self.addr.clone(),
            connect_timeout: self.connect_timeout,
            dial_attempts: self.dial_attempts,
            read_timeout: self.read_timeout,
            session: Mutex::new(None),
        }
    }
}

impl std::fmt::Debug for QueryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryClient")
            .field("addr", &self.addr)
            .field("connect_timeout", &self.connect_timeout)
            .field("dial_attempts", &self.dial_attempts)
            .field("read_timeout", &self.read_timeout)
            .finish_non_exhaustive()
    }
}

/// First retry backoff after a failed dial; doubles per attempt.
const DIAL_BACKOFF_FLOOR: Duration = Duration::from_millis(10);
/// Retry backoff ceiling.
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(500);

impl QueryClient {
    /// A client for the plane at `addr` with the default knobs: 1 s
    /// connect timeout, 5 dial attempts (backoff doubling from 10 ms),
    /// no read timeout (consistent queries legitimately wait for the
    /// next chunk boundary).
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            connect_timeout: Duration::from_secs(1),
            dial_attempts: 5,
            read_timeout: None,
            session: Mutex::new(None),
        }
    }

    /// Per-attempt TCP connect timeout.
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// How many times to dial before giving up (minimum 1). Attempts are
    /// separated by an exponential backoff (10 ms doubling, capped at
    /// 500 ms) — a client started alongside the service wins the race
    /// without spinning.
    pub fn dial_attempts(mut self, attempts: u32) -> Self {
        self.dial_attempts = attempts.max(1);
        self
    }

    /// Maximum time to wait for the reply once connected; expiry maps to
    /// [`QueryError::Timeout`].
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Sends one typed query and returns the reply pinned to the cut that
    /// produced it: on the kept session when there is one, otherwise on a
    /// fresh connection (dialled with retry/backoff, its `Hello` verified).
    pub fn query(&self, options: &QueryOptions) -> Result<QuerySnapshot<QueryReport>, QueryError> {
        let required = match options.consistency {
            QueryConsistency::Consistent => caps::QUERY,
            QueryConsistency::Cached { .. } => caps::QUERY | caps::CACHED_QUERY,
        };
        let kept = self.kept().take();
        let (session, reply) = match kept {
            Some(mut session) => {
                check_hello(&session.hello, required)
                    .map_err(|e| QueryError::Protocol(e.to_string()))?;
                match self.turn(&mut session.conn, options) {
                    Ok(reply) => (session, reply),
                    Err(TurnError::Dead(_)) => self.open(options, required)?,
                    Err(TurnError::Failed(e)) => return Err(e),
                }
            }
            None => self.open(options, required)?,
        };
        let snapshot = snapshot_of(reply)?;
        if check_hello(&session.hello, caps::QUERY_SESSION).is_ok() {
            // A concurrent query may have put its own connection back
            // first; either one will do.
            self.kept().get_or_insert(session);
        }
        Ok(snapshot)
    }

    /// The kept-session slot. A panic elsewhere cannot leave it half
    /// written (it only ever holds a whole session or none), so a
    /// poisoned lock is still usable.
    fn kept(&self) -> MutexGuard<'_, Option<Session>> {
        self.session.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Dials a fresh connection and runs one turn on it. The query goes
    /// out before the plane's `Hello` is read (see the module docs), and
    /// that `Hello` is checked before the reply is trusted.
    fn open(
        &self,
        options: &QueryOptions,
        required: u64,
    ) -> Result<(Session, WireMessage), QueryError> {
        let stream = self.dial()?;
        stream
            .set_read_timeout(self.read_timeout)
            .map_err(QueryError::Io)?;
        let mut conn = tcp_framed(stream).map_err(QueryError::Io)?;
        conn.send(&WireMessage::Query { options: *options })
            .map_err(|e| self.classify_io(e))?;
        let hello = self.recv(&mut conn).map_err(TurnError::into_error)?;
        check_hello(&hello, required).map_err(|e| QueryError::Protocol(e.to_string()))?;
        let reply = self.recv(&mut conn).map_err(TurnError::into_error)?;
        Ok((Session { conn, hello }, reply))
    }

    /// One query turn on a kept connection: send, then read the reply.
    fn turn(
        &self,
        conn: &mut TcpConnection,
        options: &QueryOptions,
    ) -> Result<WireMessage, TurnError> {
        conn.send(&WireMessage::Query { options: *options })
            .map_err(|e| TurnError::Dead(QueryError::Io(e)))?;
        self.recv(conn)
    }

    /// Connects with retry: each attempt uses `connect_timeout`, failures
    /// back off exponentially between attempts.
    fn dial(&self) -> Result<TcpStream, QueryError> {
        let mut backoff = DIAL_BACKOFF_FLOOR;
        let mut last: Option<io::Error> = None;
        for attempt in 0..self.dial_attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(DIAL_BACKOFF_CAP);
            }
            match self.connect_once() {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(QueryError::Dial {
            attempts: self.dial_attempts,
            last: last.unwrap_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("cannot resolve {}", self.addr),
                )
            }),
        })
    }

    fn connect_once(&self) -> io::Result<TcpStream> {
        let mut resolve_error = None;
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, self.connect_timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => resolve_error = Some(e),
            }
        }
        Err(resolve_error.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} resolves to no address", self.addr),
            )
        }))
    }

    fn recv(&self, conn: &mut TcpConnection) -> Result<WireMessage, TurnError> {
        match conn.recv() {
            Ok(Some(msg)) => Ok(msg),
            Ok(None) => Err(TurnError::Dead(QueryError::Protocol(
                "query plane closed the connection without replying".into(),
            ))),
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::BrokenPipe
                        | io::ErrorKind::UnexpectedEof
                ) =>
            {
                Err(TurnError::Dead(QueryError::Io(e)))
            }
            Err(WireError::Io(e)) => Err(TurnError::Failed(self.classify_io(e))),
            Err(other) => Err(TurnError::Failed(QueryError::Protocol(other.to_string()))),
        }
    }

    /// Read-timeout expiry surfaces as `WouldBlock` or `TimedOut`
    /// depending on the platform; both mean "the reply didn't come".
    fn classify_io(&self, e: io::Error) -> QueryError {
        match (self.read_timeout, e.kind()) {
            (Some(after), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                QueryError::Timeout { after }
            }
            _ => QueryError::Io(e),
        }
    }
}

/// Maps the plane's answer to a query onto the typed result.
fn snapshot_of(reply: WireMessage) -> Result<QuerySnapshot<QueryReport>, QueryError> {
    match reply {
        WireMessage::QueryReply {
            processed,
            merged_fnv,
            epoch,
            cut,
            cached,
            sample,
        } => Ok(QuerySnapshot {
            value: QueryReport {
                processed,
                merged_fnv,
                sample,
            },
            epoch,
            cut,
            cached,
        }),
        WireMessage::QueryRejected { code, detail } => Err(match code {
            reject::STALE => QueryError::Stale { detail },
            reject::CLOSED => QueryError::Closed { detail },
            other => QueryError::Protocol(format!("unknown rejection code {other}: {detail}")),
        }),
        other => Err(QueryError::Protocol(format!(
            "query plane answered with {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn dial_gives_up_with_a_typed_error() {
        // A port nothing listens on: every attempt fails fast, and the
        // error records how hard we tried.
        let client = QueryClient::new("127.0.0.1:1")
            .connect_timeout(Duration::from_millis(50))
            .dial_attempts(2);
        match client.query(&QueryOptions::consistent()) {
            Err(QueryError::Dial { attempts: 2, .. }) => {}
            other => panic!("expected a dial error, got {other:?}"),
        }
    }

    fn reply(epoch: u64) -> WireMessage {
        WireMessage::QueryReply {
            processed: 9,
            merged_fnv: 1,
            epoch,
            cut: 3,
            cached: true,
            sample: "empty".into(),
        }
    }

    /// Reads the client's next message, which must be a query.
    fn expect_query(conn: &mut TcpConnection) -> QueryOptions {
        match conn.recv().unwrap() {
            Some(WireMessage::Query { options }) => options,
            other => panic!("expected a query, got {other:?}"),
        }
    }

    fn listen() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    fn accept(listener: &TcpListener) -> TcpConnection {
        tcp_framed(listener.accept().unwrap().0).unwrap()
    }

    /// A plane without the session bit gets one query per connection, and
    /// the client's query goes out before the plane's `Hello` arrives: a
    /// server that reads the query first still gets it, and then answers
    /// as usual. (A client that waited for the `Hello` would time out.)
    #[test]
    fn query_is_sent_before_the_hello_is_read() {
        let (listener, addr) = listen();
        let server = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for epoch in [4, 5] {
                let mut conn = accept(&listener);
                seen.push(expect_query(&mut conn));
                conn.send(&WireMessage::Hello {
                    protocol: tps_streams::wire::WIRE_PROTOCOL_VERSION,
                    capabilities: caps::ALL & !caps::QUERY_SESSION,
                    shard: 0,
                    resume_epoch: epoch,
                })
                .unwrap();
                conn.send(&reply(epoch)).unwrap();
                assert!(conn.recv().unwrap().is_none(), "the client hangs up");
            }
            seen
        });
        let client = QueryClient::new(addr).read_timeout(Duration::from_secs(5));
        for epoch in [4, 5] {
            let snapshot = client.query(&QueryOptions::cached(2)).unwrap();
            assert_eq!(
                (snapshot.epoch, snapshot.cut, snapshot.cached),
                (epoch, 3, true)
            );
        }
        assert_eq!(server.join().unwrap(), [QueryOptions::cached(2); 2]);
    }

    /// A session plane answers many queries on one connection. When it
    /// closes that connection between queries (its idle deadline), the
    /// next query redials once, transparently.
    #[test]
    fn a_session_is_reused_and_redialled_once_when_dead() {
        let (listener, addr) = listen();
        let server = std::thread::spawn(move || {
            let mut conn = accept(&listener);
            expect_query(&mut conn);
            conn.send(&WireMessage::hello(0, 1)).unwrap();
            conn.send(&reply(1)).unwrap();
            expect_query(&mut conn);
            conn.send(&reply(2)).unwrap();
            drop(conn); // the idle deadline
            let mut conn = accept(&listener);
            assert_eq!(expect_query(&mut conn), QueryOptions::consistent());
            conn.send(&WireMessage::hello(0, 3)).unwrap();
            conn.send(&reply(3)).unwrap();
        });
        let client = QueryClient::new(addr).read_timeout(Duration::from_secs(5));
        let epochs: Vec<u64> = [QueryOptions::cached(2), QueryOptions::cached(2)]
            .into_iter()
            .chain([QueryOptions::consistent()])
            .map(|options| client.query(&options).unwrap().epoch)
            .collect();
        assert_eq!(epochs, [1, 2, 3]);
        server.join().unwrap();
        // A clone starts with no connection: it dials the (now gone)
        // plane afresh instead of sharing the session.
        let clone = client
            .clone()
            .connect_timeout(Duration::from_millis(50))
            .dial_attempts(1);
        assert!(matches!(
            clone.query(&QueryOptions::consistent()),
            Err(QueryError::Dial { attempts: 1, .. })
        ));
    }

    /// A timed-out query drops its connection and is never retried, so
    /// the reply that arrives late can never answer a later query.
    #[test]
    fn a_late_reply_is_never_returned_and_a_timeout_is_never_retried() {
        let (listener, addr) = listen();
        let (timed_out_tx, timed_out_rx) = std::sync::mpsc::channel();
        let (checked_tx, checked_rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let mut conn = accept(&listener);
            expect_query(&mut conn);
            conn.send(&WireMessage::hello(0, 1)).unwrap();
            conn.send(&reply(1)).unwrap();
            expect_query(&mut conn);
            timed_out_rx.recv().unwrap();
            // The client has given up: answer late, on the old connection.
            let _ = conn.send(&reply(99));
            listener.set_nonblocking(true).unwrap();
            let retried = listener.accept().is_ok();
            listener.set_nonblocking(false).unwrap();
            checked_tx.send(retried).unwrap();
            let mut conn = accept(&listener);
            expect_query(&mut conn);
            conn.send(&WireMessage::hello(0, 3)).unwrap();
            conn.send(&reply(3)).unwrap();
        });
        let after = Duration::from_millis(500);
        let client = QueryClient::new(addr).read_timeout(after);
        assert_eq!(client.query(&QueryOptions::cached(2)).unwrap().epoch, 1);
        match client.query(&QueryOptions::cached(2)) {
            Err(QueryError::Timeout { after: t }) => assert_eq!(t, after),
            other => panic!("expected a timeout, got {other:?}"),
        }
        timed_out_tx.send(()).unwrap();
        assert!(!checked_rx.recv().unwrap(), "a timeout was retried");
        assert_eq!(client.query(&QueryOptions::cached(2)).unwrap().epoch, 3);
        server.join().unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        let e = QueryError::Stale {
            detail: "cut 3 epochs behind".into(),
        };
        assert!(e.to_string().contains("stale"));
        let t = QueryError::Timeout {
            after: Duration::from_millis(250),
        };
        assert!(t.to_string().contains("250"));
    }
}
