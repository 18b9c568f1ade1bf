//! The query-plane client: dial a coordinator's query listener, ask for
//! a merged sample at a chosen consistency level, get a typed answer
//! back. [`QueryClient`] is the one client surface (connect timeout,
//! dial retry with backoff, read timeout, typed [`QueryError`]).
//!
//! The plane leads with its `Hello`, and the client verifies the protocol
//! version and — for cached queries — the [`caps::CACHED_QUERY`]
//! capability bit before it trusts any reply. It sends its
//! [`WireMessage::Query`] at once, without waiting for that `Hello`: a
//! connection whose handshake completes while the plane closes its
//! listener (at job end) can be dropped by the server's kernel without a
//! reset (Linux counts it under `ListenDrops`), and a client that only
//! listens would then wait out its whole read timeout. A client that has
//! sent bytes gets the reset at once. The reply is either a `QueryReply`
//! (mapped to [`QuerySnapshot<QueryReport>`], pinning the epoch/cut that
//! produced it) or a typed `QueryRejected` (mapped to
//! [`QueryError::Stale`] / [`QueryError::Closed`]).

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use tps_streams::wire::transport::{tcp_framed, Connection};
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
#[derive(Debug, Clone)]
pub struct QueryClient {
    addr: String,
    connect_timeout: Duration,
    dial_attempts: u32,
    read_timeout: Option<Duration>,
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

    /// Dials the plane (with retry/backoff), verifies its `Hello`, sends
    /// one typed query and returns the reply pinned to the cut that
    /// produced it.
    pub fn query(&self, options: &QueryOptions) -> Result<QuerySnapshot<QueryReport>, QueryError> {
        let stream = self.dial()?;
        stream
            .set_read_timeout(self.read_timeout)
            .map_err(QueryError::Io)?;
        let mut conn = tcp_framed(stream).map_err(QueryError::Io)?;

        // Speak first (see the module docs), then check the plane's Hello:
        // its version and — for a cached answer — the CACHED_QUERY bit.
        conn.send(&WireMessage::Query { options: *options })
            .map_err(|e| self.classify_io(e))?;
        let required = match options.consistency {
            QueryConsistency::Consistent => caps::QUERY,
            QueryConsistency::Cached { .. } => caps::QUERY | caps::CACHED_QUERY,
        };
        let hello = self.recv(&mut conn)?;
        check_hello(&hello, required).map_err(|e| QueryError::Protocol(e.to_string()))?;

        match self.recv(&mut conn)? {
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

    fn recv<C: Connection>(&self, conn: &mut C) -> Result<WireMessage, QueryError> {
        match conn.recv() {
            Ok(Some(msg)) => Ok(msg),
            Ok(None) => Err(QueryError::Protocol(
                "query plane closed the connection without replying".into(),
            )),
            Err(WireError::Io(e)) => Err(self.classify_io(e)),
            Err(other) => Err(QueryError::Protocol(other.to_string())),
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The client's query goes out before the plane's `Hello` arrives: a
    /// server that reads the query first still gets it, and then answers
    /// as usual. (A client that waited for the `Hello` would time out.)
    #[test]
    fn query_is_sent_before_the_hello_is_read() {
        use tps_streams::wire::transport::{Listener, TcpServerListener};

        let mut listener = TcpServerListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap().expect("tcp accepts");
            let options = match conn.recv().unwrap() {
                Some(WireMessage::Query { options }) => options,
                other => panic!("expected the query first, got {other:?}"),
            };
            conn.send(&WireMessage::hello(0, 4)).unwrap();
            conn.send(&WireMessage::QueryReply {
                processed: 9,
                merged_fnv: 1,
                epoch: 4,
                cut: 3,
                cached: true,
                sample: "empty".into(),
            })
            .unwrap();
            options
        });
        let snapshot = QueryClient::new(addr)
            .read_timeout(Duration::from_secs(5))
            .query(&QueryOptions::cached(2))
            .unwrap();
        assert_eq!(
            (snapshot.epoch, snapshot.cut, snapshot.cached),
            (4, 3, true)
        );
        assert_eq!(server.join().unwrap(), QueryOptions::cached(2));
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
