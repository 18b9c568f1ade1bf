//! Pluggable byte transports under the wire protocol: the same
//! length-prefixed sealed-envelope framing ([`super::read_message`] /
//! [`super::write_message`]) over whichever duplex byte stream connects
//! the two processes.
//!
//! The protocol module defines *what* travels; this module defines
//! *where*. A [`Connection`] is one framed duplex conversation (send a
//! [`WireMessage`], receive one), a [`Listener`] hands out inbound
//! connections. Two transports ship:
//!
//! * **stdio / pipes** — the coordinator spawns the worker as a child and
//!   talks over its stdin/stdout ([`StdioListener`] on the worker side,
//!   a [`FramedConnection`] over the child's pipe pair on the
//!   coordinator side). Single-host, zero configuration.
//! * **TCP sockets** — the worker binds a [`TcpServerListener`] (the
//!   `--listen` mode) and the coordinator dials it with [`tcp_connect`],
//!   so shards can live on other hosts. `TCP_NODELAY` is set on every
//!   stream: the protocol is strict request/response turns, and Nagle
//!   batching would serialize every barrier round-trip with the delayed
//!   ACK timer.
//!
//! The two behave identically at the protocol layer — the service's
//! SIGKILL-recovery smoke tests run the same scenario over both — with
//! one lifecycle difference: a pipe pair dies with its processes (one
//! connection, ever), while a TCP listener outlives a dead peer, which is
//! what lets a worker survive a crashed coordinator and re-handshake
//! with its replacement. [`Listener::accept`] returns `Ok(None)` when a
//! transport is out of connections (stdio after its one pair); TCP
//! accepts forever.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use super::{read_message_within, write_message, WireError, WireMessage, MAX_MESSAGE_LEN};

/// The next sleep in the bounded accept-poll backoff schedule: doubling
/// from [`POLL_BACKOFF_FLOOR`] up to [`POLL_BACKOFF_CAP`].
///
/// An idle accept loop built on [`TcpServerListener::accept_pending`]
/// alone spins a core; sleeping a fixed tick either wastes latency (long
/// tick) or still burns CPU (short tick). The schedule starts at 1 ms —
/// a freshly-idle listener stays responsive — and caps at 16 ms, so an
/// idle window of any length costs a bounded ~64 polls/second instead of
/// millions.
pub fn poll_backoff(previous: Duration) -> Duration {
    if previous < POLL_BACKOFF_FLOOR {
        POLL_BACKOFF_FLOOR
    } else {
        (previous * 2).min(POLL_BACKOFF_CAP)
    }
}

/// Where the accept-poll backoff schedule starts.
pub const POLL_BACKOFF_FLOOR: Duration = Duration::from_millis(1);

/// Where the accept-poll backoff schedule tops out.
pub const POLL_BACKOFF_CAP: Duration = Duration::from_millis(16);

/// One framed duplex conversation: send a message, receive a message.
///
/// Implementations own any buffering; [`Connection::send`] flushes (the
/// protocol is request/response turns — an unflushed frame deadlocks the
/// peer).
pub trait Connection {
    /// Writes one message and flushes.
    fn send(&mut self, msg: &WireMessage) -> io::Result<()>;

    /// Reads the next message; `Ok(None)` is a clean end-of-stream at a
    /// message boundary (the peer closed or died between messages).
    fn recv(&mut self) -> Result<Option<WireMessage>, WireError>;
}

/// A source of inbound [`Connection`]s (the worker side of a transport).
pub trait Listener {
    /// The connection type this transport produces.
    type Conn: Connection;

    /// Blocks until the next inbound connection; `Ok(None)` means the
    /// transport has no more connections to give (stdio after its one
    /// pipe pair) and the accept loop should end.
    fn accept(&mut self) -> io::Result<Option<Self::Conn>>;
}

/// The wire framing over any `Read`/`Write` pair — child-process pipes,
/// socket halves, or in-memory buffers in tests.
pub struct FramedConnection<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: BufWriter<W>,
    /// The largest frame `recv` accepts; [`MAX_MESSAGE_LEN`] unless set.
    frame_cap: u32,
}

impl<R: Read, W: Write> FramedConnection<R, W> {
    /// Frames the given byte-stream pair.
    pub fn new(reader: R, writer: W) -> Self {
        Self {
            reader: BufReader::new(reader),
            writer: BufWriter::new(writer),
            frame_cap: MAX_MESSAGE_LEN,
        }
    }

    /// Caps the frames `recv` accepts at `cap` bytes (see
    /// [`super::read_message_within`]): a longer length prefix fails the
    /// read before anything is allocated for it.
    pub fn set_frame_cap(&mut self, cap: u32) {
        self.frame_cap = cap;
    }
}

impl<R: Read, W: Write> Connection for FramedConnection<R, W> {
    fn send(&mut self, msg: &WireMessage) -> io::Result<()> {
        write_message(&mut self.writer, msg)
    }

    fn recv(&mut self) -> Result<Option<WireMessage>, WireError> {
        read_message_within(&mut self.reader, self.frame_cap)
    }
}

/// A framed TCP connection (the socket transport's [`Connection`]).
pub type TcpConnection = FramedConnection<TcpStream, TcpStream>;

/// Frames an accepted/connected TCP stream (sets `TCP_NODELAY`; the
/// read half is a `try_clone` of the same socket).
pub fn tcp_framed(stream: TcpStream) -> io::Result<TcpConnection> {
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    Ok(FramedConnection::new(reader, stream))
}

impl TcpConnection {
    /// Sets the socket's read timeout: a `recv` that waits longer fails
    /// with `WouldBlock` or `TimedOut` (the kind is platform-dependent).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }
}

/// Dials a worker endpoint (`host:port`), returning the framed
/// connection.
pub fn tcp_connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpConnection> {
    tcp_framed(TcpStream::connect(addr)?)
}

/// The worker side of the stdio/pipe transport: exactly one connection —
/// this process's stdin/stdout — then exhausted.
pub struct StdioListener {
    taken: bool,
}

impl StdioListener {
    /// A listener over this process's stdin/stdout.
    pub fn new() -> Self {
        Self { taken: false }
    }
}

impl Default for StdioListener {
    fn default() -> Self {
        Self::new()
    }
}

impl Listener for StdioListener {
    type Conn = FramedConnection<io::Stdin, io::Stdout>;

    fn accept(&mut self) -> io::Result<Option<Self::Conn>> {
        if self.taken {
            return Ok(None);
        }
        self.taken = true;
        Ok(Some(FramedConnection::new(io::stdin(), io::stdout())))
    }
}

/// The worker (and query-plane) side of the socket transport: accepts
/// framed TCP connections, forever.
pub struct TcpServerListener {
    inner: TcpListener,
}

impl TcpServerListener {
    /// Binds `addr` (use port `0` for an ephemeral port; read it back
    /// with [`Self::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(Self {
            inner: TcpListener::bind(addr)?,
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Non-blocking poll: the next pending connection if one is already
    /// queued, `None` otherwise. This is the ingest loop's way to serve
    /// the query plane without ever parking on `accept` — ingest
    /// continues whenever no client is waiting.
    pub fn accept_pending(&self) -> io::Result<Option<TcpConnection>> {
        self.inner.set_nonblocking(true)?;
        let pending = match self.inner.accept() {
            Ok((stream, _)) => Some(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
            Err(e) => {
                // Restore blocking mode before surfacing the error.
                let _ = self.inner.set_nonblocking(false);
                return Err(e);
            }
        };
        self.inner.set_nonblocking(false)?;
        match pending {
            Some(stream) => {
                stream.set_nonblocking(false)?;
                Ok(Some(tcp_framed(stream)?))
            }
            None => Ok(None),
        }
    }

    /// Polls for a pending connection for up to `timeout`, sleeping the
    /// bounded [`poll_backoff`] schedule between polls — a bounded wait
    /// for callers that must look at other state between accepts (a
    /// thread that can park indefinitely should use the blocking
    /// [`Listener::accept`] instead). An idle window costs a handful of
    /// polls (1, 2, 4, … 16 ms apart), never a spinning core.
    pub fn accept_within(&self, timeout: Duration) -> io::Result<Option<TcpConnection>> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::ZERO;
        loop {
            if let Some(conn) = self.accept_pending()? {
                return Ok(Some(conn));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            backoff = poll_backoff(backoff);
            std::thread::sleep(backoff.min(deadline - now));
        }
    }
}

impl Listener for TcpServerListener {
    type Conn = TcpConnection;

    fn accept(&mut self) -> io::Result<Option<Self::Conn>> {
        let (stream, _) = self.inner.accept()?;
        Ok(Some(tcp_framed(stream)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framed_connection_round_trips_over_buffers() {
        let mut outbound = Vec::new();
        {
            let mut conn = FramedConnection::new(io::empty(), &mut outbound);
            conn.send(&WireMessage::hello(2, 5)).unwrap();
            conn.send(&WireMessage::Shutdown).unwrap();
        }
        let mut conn = FramedConnection::new(outbound.as_slice(), io::sink());
        assert_eq!(conn.recv().unwrap(), Some(WireMessage::hello(2, 5)));
        assert_eq!(conn.recv().unwrap(), Some(WireMessage::Shutdown));
        assert!(conn.recv().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn tcp_transport_round_trips_and_survives_peer_loss() {
        let mut listener = TcpServerListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: echo one message, then the peer drops.
            let mut conn = listener.accept().unwrap().expect("tcp accepts");
            let msg = conn.recv().unwrap().expect("message");
            conn.send(&msg).unwrap();
            assert!(conn.recv().unwrap().is_none(), "peer closed cleanly");
            // The listener outlives the dead peer: a second connection
            // works (this is what coordinator-crash recovery leans on).
            let mut conn = listener.accept().unwrap().expect("tcp accepts again");
            assert_eq!(
                conn.recv().unwrap(),
                Some(WireMessage::Query {
                    options: Default::default(),
                })
            );
            conn.send(&WireMessage::QueryReply {
                processed: 7,
                merged_fnv: 9,
                epoch: 1,
                cut: 2,
                cached: false,
                sample: "empty".to_string(),
            })
            .unwrap();
        });

        {
            let mut conn = tcp_connect(addr).unwrap();
            let sent = WireMessage::Barrier {
                epoch: 3,
                kind: crate::wire::BarrierKind::Query,
            };
            conn.send(&sent).unwrap();
            assert_eq!(conn.recv().unwrap(), Some(sent));
        } // dropped: simulates the first peer dying

        let mut conn = tcp_connect(addr).unwrap();
        conn.send(&WireMessage::Query {
            options: Default::default(),
        })
        .unwrap();
        match conn.recv().unwrap() {
            Some(WireMessage::QueryReply { processed: 7, .. }) => {}
            other => panic!("expected reply, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn accept_pending_polls_without_blocking() {
        let listener = TcpServerListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Nothing queued: the poll returns immediately with None.
        assert!(listener.accept_pending().unwrap().is_none());
        // Queue a client, then poll until it surfaces (the connect is
        // asynchronous to the accept queue).
        let client = std::thread::spawn(move || {
            let mut conn = tcp_connect(addr).unwrap();
            conn.send(&WireMessage::Query {
                options: Default::default(),
            })
            .unwrap();
        });
        let mut conn = listener
            .accept_within(Duration::from_secs(10))
            .unwrap()
            .expect("queued client surfaces");
        assert_eq!(
            conn.recv().unwrap(),
            Some(WireMessage::Query {
                options: Default::default(),
            })
        );
        client.join().unwrap();
    }

    #[test]
    fn poll_backoff_schedule_is_bounded() {
        // The schedule starts at the floor, doubles, and pins at the cap.
        let mut backoff = Duration::ZERO;
        let mut seen = Vec::new();
        for _ in 0..8 {
            backoff = poll_backoff(backoff);
            seen.push(backoff.as_millis());
        }
        assert_eq!(seen, [1, 2, 4, 8, 16, 16, 16, 16]);
        // Consequence: any one-second idle window costs a bounded number
        // of polls (floor-to-cap ramp plus cap-spaced ticks), not a spin.
        let mut polls = 0u32;
        let mut waited = Duration::ZERO;
        let mut step = Duration::ZERO;
        while waited < Duration::from_secs(1) {
            polls += 1;
            step = poll_backoff(step);
            waited += step;
        }
        assert!(polls <= 68, "idle second costs {polls} polls");
    }

    #[test]
    fn idle_accept_within_sleeps_instead_of_spinning() {
        let listener = TcpServerListener::bind("127.0.0.1:0").unwrap();
        // An idle window returns None at the deadline; the backoff
        // schedule means the wait is dominated by sleeps, not polls.
        let start = Instant::now();
        assert!(listener
            .accept_within(Duration::from_millis(50))
            .unwrap()
            .is_none());
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(50),
            "returned {elapsed:?} before the idle deadline"
        );
    }

    #[test]
    fn stdio_listener_is_one_shot() {
        let mut listener = StdioListener::new();
        assert!(listener.accept().unwrap().is_some());
        assert!(listener.accept().unwrap().is_none(), "stdio is one pair");
    }
}
