//! The coordinator↔worker control protocol of the cross-process ingest
//! service (`tps-service`) — a **semi-public, versioned wire API**.
//!
//! The persistent runtime in `tps_core::runtime` moves chunks and barrier
//! commands over bounded in-memory channels; this module is the same command
//! vocabulary flattened onto a byte stream, so the "shard worker" can live
//! in a different *process* — over its stdin/stdout pipes or a TCP socket
//! (see [`transport`]) — while the coordinator keeps the exact
//! epoch/barrier discipline: ship every staged chunk, then a
//! [`WireMessage::Barrier`] to every worker, then collect the in-band
//! [`WireMessage::BarrierAck`]s — acks arriving after all prior chunks is
//! what makes the per-worker states a consistent cut.
//!
//! ## Framing
//!
//! Every message is a `u32` little-endian length prefix followed by a
//! standard sealed envelope whose payload is the message body. Reusing the
//! snapshot envelope buys the protocol the codec's hardening for free:
//! magic/version/tag checks, a declared length cross-checked against the
//! bytes received, and a checksum over the whole frame — a desynchronized
//! or corrupted pipe fails as a typed [`CodecError`] instead of misparsing.
//! The length prefix is capped at [`MAX_MESSAGE_LEN`] *before* any
//! allocation.
//!
//! The envelope tag picks the checksum. `Hello` keeps its frozen envelope
//! (tag [`tag::WIRE_MESSAGE`], byte-serial FNV-1a [`checksum`]), so a peer
//! of any protocol version can read it. Every other message travels under
//! [`tag::WIRE_FRAME`], sealed with the word-at-a-time [`word_checksum`]:
//! ingest frames carry most of the service's bytes, and per-byte FNV cost
//! more than the sampler itself. A frame is built in one exact-size buffer
//! with its length prefix in front, so it leaves in one `write_all`;
//! ingest arrays are copied in and out in bulk.
//!
//! ## Conversation shape
//!
//! ```text
//! worker → coordinator   Hello { protocol, capabilities, shard, resume_epoch }
//! coordinator → worker   Ingest { items }                   (one routed piece)
//! coordinator → worker   Barrier { epoch: seq, kind: Sync } (its flow-control mark)
//! worker → coordinator   BarrierAck { shard, epoch: seq }   (the piece is applied)
//! coordinator → worker   Barrier { epoch, kind }
//! worker → coordinator   BarrierAck { shard, epoch, snapshot? }
//! coordinator → worker   Shutdown                           (clean exit)
//!
//! coordinator → client   Hello { protocol, capabilities, .. }   (query plane)
//! client → coordinator   Query { options }
//! coordinator → client   QueryReply { processed, merged_fnv, epoch, cut, cached, sample }
//!                        | QueryRejected { code, detail }
//! client → coordinator   Query { options }            (later queries on the same
//! coordinator → client   QueryReply | QueryRejected    connection, when the Hello
//!                                                      carried QUERY_SESSION)
//! ```
//!
//! A `Checkpoint` barrier makes the worker append an incremental frame
//! ([`crate::codec::delta`]) to its on-disk chain before acking (the ack is
//! the coordinator's signal that the chunks before the barrier are durable,
//! so its replay buffer can shrink); a `Query` barrier returns the worker's
//! full sealed snapshot in the ack, for restore-and-merge at the
//! coordinator; a `CheckpointPublish` barrier does both — one barrier
//! round feeds the on-disk chain *and* the query plane's snapshot cache.
//! A `Sync` barrier is flow control, not a cut: the worker acks it at once
//! with no snapshot. The coordinator follows every piece it ships (at most
//! `RUNTIME_CHUNK` updates) with a `Sync`, and ships a worker's next piece
//! only once at most `RING_CAPACITY` (two) earlier `Sync`s are unacked:
//! the in-process runtime's lead rule (`tps_core::runtime`). Its `epoch`
//! field is a per-link sequence number, not a job epoch. `Hello::resume_epoch` reports the checkpoint
//! epoch a restarted worker recovered to (`0` = fresh start), which tells
//! the coordinator exactly which chunks to re-send.
//!
//! On the query plane the roles flip: the *server* sends the `Hello` (so a
//! client can check the [`caps::CACHED_QUERY`] bit before trusting a
//! cached answer), the client sends a [`WireMessage::Query`] carrying
//! its typed [`QueryOptions`] — without waiting for that `Hello`, so a
//! connection the server dropped surfaces as a reset instead of a silent
//! wait — and the server answers with a
//! [`WireMessage::QueryReply`] pinned to the cut that produced it — or a
//! typed [`WireMessage::QueryRejected`] when it cannot. A server whose
//! `Hello` carries [`caps::QUERY_SESSION`] keeps the connection open for
//! further `Query` → reply turns, with no second `Hello`, until the client
//! closes it or it idles past the server's deadline; a client keeps a
//! connection only when that bit is set, so a server without it still
//! gets one query per connection.
//!
//! ## Versioning and negotiation
//!
//! The protocol is versioned **independently of the snapshot format**:
//! [`WIRE_PROTOCOL_VERSION`] names the conversation shape above, while the
//! envelope's `FORMAT_VERSION` keeps covering payload encodings. A
//! worker's `Hello` leads with its protocol version and a capability
//! bitmap ([`caps`]); the `Hello` layout itself is **frozen across all
//! protocol versions** (version first, then capabilities, shard and
//! resume epoch, all fixed-width) and so is its envelope (legacy tag, FNV
//! checksum), so any future peer's `Hello` still *decodes* and the
//! coordinator can reject it with the typed
//! [`WireError::VersionMismatch`] / [`WireError::CapabilityMissing`]
//! (see [`check_hello`]) instead of a misparse deep inside a later frame.
//! Negotiation is one-way: the worker announces, the coordinator decides.

pub mod transport;

use std::io::{self, Read, Write};

use crate::codec::{
    checksum, le_u64, tag, unseal_with, word_checksum, CodecError, SnapshotReader, SnapshotWriter,
    ENVELOPE_HEADER, FORMAT_VERSION, MAGIC,
};
use crate::query::{QueryConsistency, QueryOptions};
use crate::update::{Item, SignedUpdate, StreamUpdate};

/// Version of the coordinator↔worker conversation this build speaks.
///
/// Bumped whenever a message kind is added, removed, or re-laid-out
/// (anything a same-version peer could misinterpret). The `Hello` layout
/// is exempt — it is frozen so that version mismatches are always
/// *detectable* (see the module docs).
///
/// v2 re-laid-out `Query`/`QueryReply` for the typed query surface
/// (consistency options in the request; epoch/cut/cached in the reply),
/// added `QueryRejected` and the `CheckpointPublish` barrier kind. v3
/// moved every message but `Hello` to the [`tag::WIRE_FRAME`] envelope
/// and its word-at-a-time checksum.
pub const WIRE_PROTOCOL_VERSION: u16 = 3;

/// Capability bits a worker announces in its [`WireMessage::Hello`].
///
/// The coordinator requires the bits the job actually needs (e.g.
/// [`caps::SIGNED_INGEST`] for turnstile jobs) and rejects the worker
/// with [`WireError::CapabilityMissing`] otherwise — a typed, immediate
/// failure at handshake instead of a decode error mid-job.
pub mod caps {
    /// The worker accepts [`super::WireMessage::IngestSigned`] frames
    /// (turnstile sampler kinds).
    pub const SIGNED_INGEST: u64 = 1 << 0;
    /// The worker serves `Query` barriers (consistent-cut snapshot acks),
    /// which the live query plane and the final merged query both need.
    pub const QUERY: u64 = 1 << 1;
    /// The query plane serves [`super::QueryConsistency::Cached`] queries
    /// from its published snapshot cache. Announced by the coordinator's
    /// server-side `Hello` on query-plane connections; a client asking
    /// for a cached answer checks this bit before trusting the reply.
    pub const CACHED_QUERY: u64 = 1 << 2;
    /// The worker acks [`super::BarrierKind::Sync`] barriers, which bound
    /// the coordinator's lead on every ingest link.
    pub const CREDIT: u64 = 1 << 3;
    /// The query plane serves many `Query` turns on one connection (a
    /// session): after its one `Hello` it answers each query in turn
    /// until the client closes or the connection idles out. A client
    /// keeps a connection for its next query only when this bit is set.
    pub const QUERY_SESSION: u64 = 1 << 4;

    /// Every capability this build implements.
    pub const ALL: u64 = SIGNED_INGEST | QUERY | CACHED_QUERY | CREDIT | QUERY_SESSION;
}

/// Hard cap on a single wire message (prefix-declared), validated before
/// any allocation.
///
/// The largest legitimate message is a `Query` barrier ack carrying one
/// shard's full sealed snapshot, so this cap is also the service's
/// **per-shard state ceiling**: a shard whose snapshot outgrows it fails
/// [`write_message`] with a typed error (aborting the job) rather than
/// desynchronising the pipe. The paper's samplers keep polylogarithmic
/// state, so real shards sit orders of magnitude below 64 MiB; a
/// deployment that ever approaches the cap should raise the job's shard
/// count — per-shard state shrinks with the number of shards. See the
/// "Limits" note in `crates/README.md`'s service section.
pub const MAX_MESSAGE_LEN: u32 = 64 << 20;

/// What a [`WireMessage::Barrier`] asks the worker to do once every chunk
/// before it has been applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Append an incremental checkpoint frame to the worker's on-disk
    /// chain, then ack (no snapshot in the ack).
    Checkpoint,
    /// Ack with the worker's full sealed snapshot (consistent-cut query).
    Query,
    /// Both at once: append the checkpoint frame *and* ack with the full
    /// sealed snapshot. Used when the query plane is live, so every
    /// checkpoint barrier also feeds the published snapshot cache in the
    /// same round.
    CheckpointPublish,
    /// Ack at once with no snapshot: a flow-control mark. It appends no
    /// checkpoint frame, and its `epoch` is the link's sequence number,
    /// not a job epoch.
    Sync,
}

impl BarrierKind {
    /// Whether the ack to a barrier of this kind carries the shard's
    /// sealed snapshot: only [`Self::Query`] and [`Self::CheckpointPublish`]
    /// publish one.
    pub fn publishes(self) -> bool {
        matches!(self, Self::Query | Self::CheckpointPublish)
    }
}

/// One control message of the coordinator↔worker protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// Worker → coordinator, once per connection: the worker's protocol
    /// version and capabilities, which shard this process serves, and the
    /// checkpoint epoch it recovered to (`0` = no checkpoint found, fresh
    /// state).
    ///
    /// The on-wire layout of this message is frozen across protocol
    /// versions (see the module docs) so a mismatched peer is rejected
    /// with a typed error, never a misparse.
    Hello {
        /// The wire protocol version the worker speaks
        /// ([`WIRE_PROTOCOL_VERSION`] for this build).
        protocol: u16,
        /// Capability bitmap ([`caps`]).
        capabilities: u64,
        /// The shard index this worker owns.
        shard: u64,
        /// The checkpoint epoch restored from disk; `0` means fresh.
        resume_epoch: u64,
    },
    /// Coordinator → worker: one routed chunk of stream items, to be
    /// applied in arrival order.
    Ingest {
        /// The items of the chunk.
        items: Vec<Item>,
    },
    /// Coordinator → worker: one routed chunk of signed turnstile updates,
    /// to be applied in arrival order (the turnstile kinds' counterpart of
    /// [`WireMessage::Ingest`]).
    IngestSigned {
        /// The signed updates of the chunk.
        updates: Vec<SignedUpdate>,
    },
    /// Coordinator → worker: a consistency barrier. Everything sent before
    /// it must be applied before the worker acts and acks.
    Barrier {
        /// The barrier epoch (strictly increasing per worker).
        epoch: u64,
        /// What the worker does at the barrier.
        kind: BarrierKind,
    },
    /// Worker → coordinator: the barrier at `epoch` has been executed.
    BarrierAck {
        /// The acking worker's shard index.
        shard: u64,
        /// The epoch being acknowledged.
        epoch: u64,
        /// The worker's full sealed snapshot, for `Query` barriers.
        snapshot: Option<Vec<u8>>,
    },
    /// Coordinator → worker: drain and exit cleanly.
    Shutdown,
    /// Client → coordinator: draw a merged sample, while ingest keeps
    /// running (the live query plane). The typed [`QueryOptions`] pick
    /// between a fresh consistent cut and the published snapshot cache.
    ///
    /// A v1 client's bare `Query` (empty body) decodes as the default
    /// consistent options, so old clients keep getting the answer they
    /// always got.
    Query {
        /// The requested consistency level.
        options: QueryOptions,
    },
    /// Coordinator → client: the answer to a [`WireMessage::Query`] — the
    /// three fields the final job report prints, pinned to the cut that
    /// produced them.
    QueryReply {
        /// Stream items routed when the barrier cut the stream.
        processed: u64,
        /// FNV-1a 64 over the merged sampler's sealed snapshot bytes.
        merged_fnv: u64,
        /// The barrier epoch of the cut that produced this answer.
        epoch: u64,
        /// Chunks routed when the cut was taken.
        cut: u64,
        /// Whether the published snapshot cache served the answer
        /// (`true`) or a fresh consistent cut was forced (`false`).
        cached: bool,
        /// The merged sampler's drawn sample, in the report spelling
        /// (`index:<i>` | `empty` | `fail`).
        sample: String,
    },
    /// Coordinator → client: the query could not be answered — a typed
    /// rejection ([`reject`]) instead of a dropped connection.
    QueryRejected {
        /// Why ([`reject`] codes).
        code: u8,
        /// Human-readable detail for logs and error messages.
        detail: String,
    },
}

/// Rejection codes a [`WireMessage::QueryRejected`] can carry.
pub mod reject {
    /// No published cut satisfies the requested staleness bound and the
    /// consistent path is unavailable.
    pub const STALE: u8 = 0;
    /// The query plane is shutting down; the job has finished or is
    /// tearing down.
    pub const CLOSED: u8 = 1;
}

impl WireMessage {
    /// A [`WireMessage::Hello`] announcing this build's protocol version
    /// and full capability set.
    pub fn hello(shard: u64, resume_epoch: u64) -> Self {
        WireMessage::Hello {
            protocol: WIRE_PROTOCOL_VERSION,
            capabilities: caps::ALL,
            shard,
            resume_epoch,
        }
    }
}

/// Validates a worker's [`WireMessage::Hello`] against this build's
/// protocol version and the capability bits the job requires, returning
/// the `(shard, resume_epoch)` pair on success.
///
/// This is the coordinator's half of the (one-way) negotiation: a worker
/// from a different build fails here with the typed
/// [`WireError::VersionMismatch`] / [`WireError::CapabilityMissing`]
/// instead of a decode failure on some later frame.
pub fn check_hello(msg: &WireMessage, required_caps: u64) -> Result<(u64, u64), WireError> {
    match msg {
        WireMessage::Hello {
            protocol,
            capabilities,
            shard,
            resume_epoch,
        } => {
            if *protocol != WIRE_PROTOCOL_VERSION {
                return Err(WireError::VersionMismatch {
                    ours: WIRE_PROTOCOL_VERSION,
                    theirs: *protocol,
                });
            }
            let missing = required_caps & !capabilities;
            if missing != 0 {
                return Err(WireError::CapabilityMissing { missing });
            }
            Ok((*shard, *resume_epoch))
        }
        other => Err(WireError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected Hello, got {other:?}"),
        ))),
    }
}

const KIND_HELLO: u8 = 0;
const KIND_INGEST: u8 = 1;
const KIND_BARRIER: u8 = 2;
const KIND_BARRIER_ACK: u8 = 3;
const KIND_SHUTDOWN: u8 = 4;
const KIND_INGEST_SIGNED: u8 = 5;
const KIND_QUERY: u8 = 6;
const KIND_QUERY_REPLY: u8 = 7;
const KIND_QUERY_REJECTED: u8 = 8;

/// An update type the service can ship in an ingest message: the wire-level
/// face of the sampler-family layer.
///
/// The coordinator and worker loops are written once over
/// [`StreamUpdate`]; this trait supplies the only two kind-specific moves
/// they need — wrapping a routed chunk into the right ingest variant and
/// recognising that variant on arrival. Bare [`Item`]s travel as
/// [`WireMessage::Ingest`], [`SignedUpdate`]s as
/// [`WireMessage::IngestSigned`].
pub trait IngestPayload: StreamUpdate {
    /// Bytes one encoded update occupies ([`Self::to_wire`]'s output) —
    /// the per-element floor length decoders validate before allocating.
    const WIRE_BYTES: usize;

    /// Capability bits a worker must announce before the coordinator
    /// ships it this update type ([`caps`]).
    const REQUIRED_CAPS: u64;

    /// Wraps a routed chunk into this update type's ingest message.
    fn into_ingest(chunk: Vec<Self>) -> WireMessage;

    /// Extracts the chunk if `msg` is this update type's ingest message;
    /// hands the message back otherwise so the caller can dispatch it.
    fn from_ingest(msg: WireMessage) -> Result<Vec<Self>, WireMessage>;

    /// Encodes one update into `out`, exactly [`Self::WIRE_BYTES`] bytes
    /// (fixed-width little-endian).
    fn to_wire(&self, out: &mut [u8]);

    /// Decodes one update from the [`Self::WIRE_BYTES`] bytes
    /// [`Self::to_wire`] wrote.
    fn from_wire(bytes: &[u8]) -> Self;

    /// Writes a length-prefixed chunk in one bulk pass — the layout shared
    /// by the ingest frames and the coordinator's durable replay buffers.
    fn put_chunk(w: &mut SnapshotWriter, chunk: &[Self]) {
        w.put_len(chunk.len());
        let out = w.put_zeroed(chunk.len() * Self::WIRE_BYTES);
        for (slot, update) in out.chunks_exact_mut(Self::WIRE_BYTES).zip(chunk) {
            update.to_wire(slot);
        }
    }

    /// Reads a chunk written by [`Self::put_chunk`]; the length is
    /// validated against the bytes remaining before any allocation.
    fn get_chunk(r: &mut SnapshotReader<'_>) -> Result<Vec<Self>, CodecError> {
        let len = r.get_len(Self::WIRE_BYTES)?;
        let bytes = r.get_slice(len * Self::WIRE_BYTES)?;
        Ok(bytes
            .chunks_exact(Self::WIRE_BYTES)
            .map(Self::from_wire)
            .collect())
    }
}

impl IngestPayload for Item {
    const WIRE_BYTES: usize = 8;
    const REQUIRED_CAPS: u64 = caps::QUERY | caps::CREDIT;

    fn into_ingest(chunk: Vec<Self>) -> WireMessage {
        WireMessage::Ingest { items: chunk }
    }

    fn from_ingest(msg: WireMessage) -> Result<Vec<Self>, WireMessage> {
        match msg {
            WireMessage::Ingest { items } => Ok(items),
            other => Err(other),
        }
    }

    fn to_wire(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn from_wire(bytes: &[u8]) -> Self {
        le_u64(bytes)
    }
}

impl IngestPayload for SignedUpdate {
    const WIRE_BYTES: usize = 16;
    const REQUIRED_CAPS: u64 = caps::QUERY | caps::SIGNED_INGEST | caps::CREDIT;

    fn into_ingest(chunk: Vec<Self>) -> WireMessage {
        WireMessage::IngestSigned { updates: chunk }
    }

    fn from_ingest(msg: WireMessage) -> Result<Vec<Self>, WireMessage> {
        match msg {
            WireMessage::IngestSigned { updates } => Ok(updates),
            other => Err(other),
        }
    }

    fn to_wire(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.item.to_le_bytes());
        out[8..].copy_from_slice(&self.delta.to_le_bytes());
    }

    fn from_wire(bytes: &[u8]) -> Self {
        SignedUpdate {
            item: le_u64(bytes),
            // Two's complement: the full i64 range round-trips.
            delta: le_u64(&bytes[8..]) as i64,
        }
    }
}

/// Why reading a message off a byte stream failed: transport trouble or a
/// frame that arrived intact but does not decode.
#[derive(Debug)]
pub enum WireError {
    /// The underlying reader/writer failed (including unexpected EOF
    /// mid-frame).
    Io(io::Error),
    /// The frame bytes arrived but are not a valid message.
    Codec(CodecError),
    /// The peer's `Hello` announced a different wire protocol version
    /// (see [`check_hello`]).
    VersionMismatch {
        /// The version this build speaks ([`WIRE_PROTOCOL_VERSION`]).
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// The peer's `Hello` lacks capability bits the job requires.
    CapabilityMissing {
        /// The required bits the peer did not announce ([`caps`]).
        missing: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire transport error: {e}"),
            WireError::Codec(e) => write!(f, "wire frame error: {e}"),
            WireError::VersionMismatch { ours, theirs } => write!(
                f,
                "wire protocol version mismatch: this build speaks v{ours}, peer speaks v{theirs}"
            ),
            WireError::CapabilityMissing { missing } => write!(
                f,
                "peer lacks required wire capabilities (missing bits {missing:#x})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// The checksum a wire envelope tag is sealed with: the frozen `Hello`
/// envelope keeps FNV-1a, every other frame uses the word-at-a-time hash.
fn digest_for(envelope_tag: u16) -> fn(&[u8]) -> u64 {
    if envelope_tag == tag::WIRE_MESSAGE {
        checksum
    } else {
        word_checksum
    }
}

/// Exact payload bytes of `msg` — envelope tag, kind byte and fields — so
/// its frame is built in one allocation that never regrows.
fn payload_len(msg: &WireMessage) -> usize {
    let fields = match msg {
        WireMessage::Hello { .. } => 2 + 3 * 8,
        WireMessage::Ingest { items } => 8 + items.len() * Item::WIRE_BYTES,
        WireMessage::IngestSigned { updates } => 8 + updates.len() * SignedUpdate::WIRE_BYTES,
        WireMessage::Barrier { .. } => 8 + 1,
        WireMessage::BarrierAck { snapshot, .. } => {
            2 * 8 + 1 + snapshot.as_ref().map_or(0, |bytes| 8 + bytes.len())
        }
        WireMessage::Shutdown => 0,
        WireMessage::Query { options } => match options.consistency {
            QueryConsistency::Consistent => 1,
            QueryConsistency::Cached { .. } => 1 + 8,
        },
        WireMessage::QueryReply { sample, .. } => 4 * 8 + 1 + 8 + sample.len(),
        WireMessage::QueryRejected { detail, .. } => 1 + 8 + detail.len(),
    };
    2 + 1 + fields
}

/// Builds `msg`'s sealed frame after `prefix` reserved bytes (room for the
/// stream length prefix), in one exact-size buffer.
fn build_frame(msg: &WireMessage, prefix: usize) -> Vec<u8> {
    let envelope_tag = match msg {
        WireMessage::Hello { .. } => tag::WIRE_MESSAGE,
        _ => tag::WIRE_FRAME,
    };
    let payload = payload_len(msg);
    let mut w = SnapshotWriter::with_capacity(prefix + ENVELOPE_HEADER + payload + 8);
    w.put_zeroed(prefix);
    w.put_bytes(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_tag(envelope_tag);
    w.put_len(payload);
    w.put_tag(envelope_tag);
    match msg {
        WireMessage::Hello {
            protocol,
            capabilities,
            shard,
            resume_epoch,
        } => {
            // Frozen layout (all fixed-width, version first): any future
            // protocol version's Hello still decodes, so mismatches fail
            // typed in `check_hello`, never as a misparse.
            w.put_u8(KIND_HELLO);
            w.put_u16(*protocol);
            w.put_u64(*capabilities);
            w.put_u64(*shard);
            w.put_u64(*resume_epoch);
        }
        WireMessage::Ingest { items } => {
            w.put_u8(KIND_INGEST);
            Item::put_chunk(&mut w, items);
        }
        WireMessage::IngestSigned { updates } => {
            w.put_u8(KIND_INGEST_SIGNED);
            SignedUpdate::put_chunk(&mut w, updates);
        }
        WireMessage::Barrier { epoch, kind } => {
            w.put_u8(KIND_BARRIER);
            w.put_u64(*epoch);
            w.put_u8(match kind {
                BarrierKind::Checkpoint => 0,
                BarrierKind::Query => 1,
                BarrierKind::CheckpointPublish => 2,
                BarrierKind::Sync => 3,
            });
        }
        WireMessage::BarrierAck {
            shard,
            epoch,
            snapshot,
        } => {
            w.put_u8(KIND_BARRIER_ACK);
            w.put_u64(*shard);
            w.put_u64(*epoch);
            match snapshot {
                None => w.put_u8(0),
                Some(bytes) => {
                    w.put_u8(1);
                    w.put_len(bytes.len());
                    w.put_bytes(bytes);
                }
            }
        }
        WireMessage::Shutdown => {
            w.put_u8(KIND_SHUTDOWN);
        }
        WireMessage::Query { options } => {
            w.put_u8(KIND_QUERY);
            match options.consistency {
                QueryConsistency::Consistent => w.put_u8(0),
                QueryConsistency::Cached { max_epochs_stale } => {
                    w.put_u8(1);
                    w.put_u64(max_epochs_stale);
                }
            }
        }
        WireMessage::QueryReply {
            processed,
            merged_fnv,
            epoch,
            cut,
            cached,
            sample,
        } => {
            w.put_u8(KIND_QUERY_REPLY);
            w.put_u64(*processed);
            w.put_u64(*merged_fnv);
            w.put_u64(*epoch);
            w.put_u64(*cut);
            w.put_u8(u8::from(*cached));
            w.put_len(sample.len());
            w.put_bytes(sample.as_bytes());
        }
        WireMessage::QueryRejected { code, detail } => {
            w.put_u8(KIND_QUERY_REJECTED);
            w.put_u8(*code);
            w.put_len(detail.len());
            w.put_bytes(detail.as_bytes());
        }
    }
    let mut frame = w.into_bytes();
    // The header declared `payload` bytes before the fields were written.
    assert_eq!(
        frame.len(),
        prefix + ENVELOPE_HEADER + payload,
        "payload_len disagrees with the encoder"
    );
    let digest = digest_for(envelope_tag)(&frame[prefix..]);
    frame.extend_from_slice(&digest.to_le_bytes());
    frame
}

/// Encodes a message as its sealed frame (without the length prefix).
pub fn encode_message(msg: &WireMessage) -> Vec<u8> {
    build_frame(msg, 0)
}

/// Decodes a sealed frame (without the length prefix) back into a message.
pub fn decode_message(frame: &[u8]) -> Result<WireMessage, CodecError> {
    // The envelope tag picks the checksum; anything but the legacy Hello
    // tag is checked as a v3 frame, so a foreign tag fails typed there.
    let envelope_tag = if frame.get(6..8) == Some(&tag::WIRE_MESSAGE.to_le_bytes()[..]) {
        tag::WIRE_MESSAGE
    } else {
        tag::WIRE_FRAME
    };
    let payload = unseal_with(
        envelope_tag,
        frame,
        FORMAT_VERSION,
        digest_for(envelope_tag),
    )?;
    let mut r = SnapshotReader::new(payload);
    r.expect_tag(envelope_tag)?;
    let msg = match r.get_u8()? {
        KIND_HELLO => WireMessage::Hello {
            protocol: r.get_u16()?,
            capabilities: r.get_u64()?,
            shard: r.get_u64()?,
            resume_epoch: r.get_u64()?,
        },
        KIND_INGEST => WireMessage::Ingest {
            items: Item::get_chunk(&mut r)?,
        },
        KIND_INGEST_SIGNED => WireMessage::IngestSigned {
            updates: SignedUpdate::get_chunk(&mut r)?,
        },
        KIND_BARRIER => {
            let epoch = r.get_u64()?;
            let kind = match r.get_u8()? {
                0 => BarrierKind::Checkpoint,
                1 => BarrierKind::Query,
                2 => BarrierKind::CheckpointPublish,
                3 => BarrierKind::Sync,
                _ => {
                    return Err(CodecError::InvalidValue {
                        what: "barrier kind must be 0 (checkpoint), 1 (query), \
                               2 (checkpoint+publish) or 3 (sync)",
                    })
                }
            };
            WireMessage::Barrier { epoch, kind }
        }
        KIND_BARRIER_ACK => {
            let shard = r.get_u64()?;
            let epoch = r.get_u64()?;
            let snapshot = match r.get_u8()? {
                0 => None,
                1 => {
                    let len = r.get_len(1)?;
                    Some(r.get_bytes(len)?)
                }
                _ => {
                    return Err(CodecError::InvalidValue {
                        what: "ack snapshot flag must be 0 or 1",
                    })
                }
            };
            WireMessage::BarrierAck {
                shard,
                epoch,
                snapshot,
            }
        }
        KIND_SHUTDOWN => WireMessage::Shutdown,
        KIND_QUERY => {
            // Lenient on the body: a v1 client's Query had no body at all,
            // and it always meant "consistent cut". Decode that shape as
            // the default options so old clients keep working.
            let consistency = if r.remaining() == 0 {
                QueryConsistency::Consistent
            } else {
                match r.get_u8()? {
                    0 => QueryConsistency::Consistent,
                    1 => QueryConsistency::Cached {
                        max_epochs_stale: r.get_u64()?,
                    },
                    _ => {
                        return Err(CodecError::InvalidValue {
                            what: "query consistency must be 0 (consistent) or 1 (cached)",
                        })
                    }
                }
            };
            WireMessage::Query {
                options: QueryOptions { consistency },
            }
        }
        KIND_QUERY_REPLY => {
            let processed = r.get_u64()?;
            let merged_fnv = r.get_u64()?;
            let epoch = r.get_u64()?;
            let cut = r.get_u64()?;
            let cached = match r.get_u8()? {
                0 => false,
                1 => true,
                _ => {
                    return Err(CodecError::InvalidValue {
                        what: "query reply cached flag must be 0 or 1",
                    })
                }
            };
            let len = r.get_len(1)?;
            let sample =
                String::from_utf8(r.get_bytes(len)?).map_err(|_| CodecError::InvalidValue {
                    what: "query reply sample is not utf-8",
                })?;
            WireMessage::QueryReply {
                processed,
                merged_fnv,
                epoch,
                cut,
                cached,
                sample,
            }
        }
        KIND_QUERY_REJECTED => {
            let code = r.get_u8()?;
            let len = r.get_len(1)?;
            let detail =
                String::from_utf8(r.get_bytes(len)?).map_err(|_| CodecError::InvalidValue {
                    what: "query rejection detail is not utf-8",
                })?;
            WireMessage::QueryRejected { code, detail }
        }
        _ => {
            return Err(CodecError::InvalidValue {
                what: "unknown wire message kind",
            })
        }
    };
    r.finish()?;
    Ok(msg)
}

/// Writes one length-prefixed message and flushes the writer (messages are
/// request/response turns; a buffered unflushed frame deadlocks the peer).
pub fn write_message<W: Write>(w: &mut W, msg: &WireMessage) -> io::Result<()> {
    let mut frame = build_frame(msg, 4);
    let sealed = frame.len() - 4;
    let len = u32::try_from(sealed)
        .ok()
        .filter(|&n| n <= MAX_MESSAGE_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "wire message of {sealed} bytes exceeds MAX_MESSAGE_LEN ({MAX_MESSAGE_LEN}); \
                     for query acks this bounds one shard's snapshot — run the job with \
                     more shards to shrink per-shard state"
                ),
            )
        })?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed message. Returns `Ok(None)` on a clean EOF
/// (the peer closed the stream *between* messages); EOF mid-frame is an
/// [`WireError::Io`] with [`io::ErrorKind::UnexpectedEof`]. The length
/// prefix is validated against [`MAX_MESSAGE_LEN`] before any allocation.
pub fn read_message<R: Read>(r: &mut R) -> Result<Option<WireMessage>, WireError> {
    read_message_within(r, MAX_MESSAGE_LEN)
}

/// [`read_message`] under a smaller cap (a larger one still stops at
/// [`MAX_MESSAGE_LEN`]): a length prefix over `cap` fails
/// as [`CodecError::Truncated`] with `needed` the prefix and `remaining`
/// the cap, before any allocation and before a byte of the frame is read.
/// For peers that only ever send small frames, such as query clients.
pub fn read_message_within<R: Read>(r: &mut R, cap: u32) -> Result<Option<WireMessage>, WireError> {
    let mut prefix = [0u8; 4];
    // Hand-rolled first read so EOF at a message boundary is `None` while
    // EOF inside the prefix is still an error.
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside a wire length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix);
    let cap = cap.min(MAX_MESSAGE_LEN);
    if len > cap {
        return Err(WireError::Codec(CodecError::Truncated {
            needed: u64::from(len),
            remaining: u64::from(cap),
        }));
    }
    let mut frame = vec![0u8; len as usize];
    r.read_exact(&mut frame)?;
    Ok(Some(decode_message(&frame)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::seal;

    /// A hand-built v3 frame: `fill` writes the payload after the
    /// envelope tag, and the envelope is sealed with the word checksum.
    fn v3_frame(fill: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_tag(tag::WIRE_FRAME);
        fill(&mut w);
        let mut frame = seal(tag::WIRE_FRAME, &w.into_bytes());
        let end = frame.len() - 8;
        let digest = word_checksum(&frame[..end]);
        frame[end..].copy_from_slice(&digest.to_le_bytes());
        frame
    }

    fn all_messages() -> Vec<WireMessage> {
        vec![
            WireMessage::hello(3, 17),
            WireMessage::Hello {
                protocol: 9,
                capabilities: 0,
                shard: 1,
                resume_epoch: 0,
            },
            WireMessage::Query {
                options: QueryOptions::consistent(),
            },
            WireMessage::Query {
                options: QueryOptions::cached(3),
            },
            WireMessage::QueryReply {
                processed: 123_456,
                merged_fnv: 0xDEAD_BEEF,
                epoch: 7,
                cut: 21,
                cached: true,
                sample: "index:42".to_string(),
            },
            WireMessage::QueryReply {
                processed: 0,
                merged_fnv: 0,
                epoch: 0,
                cut: 0,
                cached: false,
                sample: String::new(),
            },
            WireMessage::QueryRejected {
                code: reject::STALE,
                detail: "no cut within 2 epochs".to_string(),
            },
            WireMessage::Ingest {
                items: (0..1000).collect(),
            },
            WireMessage::Ingest { items: vec![] },
            WireMessage::IngestSigned {
                updates: (0..500u64)
                    .map(|i| SignedUpdate {
                        item: i,
                        delta: if i % 3 == 0 { -(i as i64) } else { i as i64 },
                    })
                    .collect(),
            },
            WireMessage::IngestSigned { updates: vec![] },
            WireMessage::Barrier {
                epoch: 9,
                kind: BarrierKind::Checkpoint,
            },
            WireMessage::Barrier {
                epoch: 10,
                kind: BarrierKind::Query,
            },
            WireMessage::Barrier {
                epoch: 11,
                kind: BarrierKind::CheckpointPublish,
            },
            WireMessage::Barrier {
                epoch: 12,
                kind: BarrierKind::Sync,
            },
            WireMessage::BarrierAck {
                shard: 1,
                epoch: 9,
                snapshot: None,
            },
            WireMessage::BarrierAck {
                shard: 0,
                epoch: 10,
                snapshot: Some(vec![0xAB; 257]),
            },
            WireMessage::Shutdown,
        ]
    }

    #[test]
    fn messages_round_trip_through_a_stream() {
        let mut pipe = Vec::new();
        for msg in all_messages() {
            write_message(&mut pipe, &msg).unwrap();
        }
        let mut cursor = std::io::Cursor::new(pipe);
        for expected in all_messages() {
            let got = read_message(&mut cursor).unwrap().expect("message");
            assert_eq!(got, expected);
        }
        assert!(read_message(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncation_and_corruption_fail_typed() {
        let mut pipe = Vec::new();
        write_message(
            &mut pipe,
            &WireMessage::Ingest {
                items: vec![1, 2, 3],
            },
        )
        .unwrap();
        // EOF inside the prefix.
        let mut short = std::io::Cursor::new(&pipe[..2]);
        assert!(matches!(read_message(&mut short), Err(WireError::Io(_))));
        // EOF inside the frame.
        let mut cut = std::io::Cursor::new(&pipe[..pipe.len() - 3]);
        assert!(matches!(read_message(&mut cut), Err(WireError::Io(_))));
        // Any flipped frame bit is caught (checksum or structure).
        for pos in 4..pipe.len() {
            let mut corrupt = pipe.clone();
            corrupt[pos] ^= 0x04;
            let mut c = std::io::Cursor::new(corrupt);
            assert!(
                matches!(read_message(&mut c), Err(WireError::Codec(_))),
                "flip at {pos} went unnoticed"
            );
        }
    }

    /// Every pair of flipped bits in a small ingest frame fails typed. A
    /// word-wise checksum without a full-avalanche finaliser lets some
    /// pairs cancel (two bit-63 flips in adjacent words, for word-wise
    /// FNV-1a); this sweep pins the requirement.
    #[test]
    fn every_two_bit_flip_of_an_ingest_frame_fails_typed() {
        let frame = encode_message(&WireMessage::Ingest {
            items: vec![1, u64::MAX, 1 << 63],
        });
        let bits = frame.len() * 8;
        let mut corrupt = frame.clone();
        for i in 0..bits {
            corrupt[i / 8] ^= 1 << (i % 8);
            for j in i + 1..bits {
                corrupt[j / 8] ^= 1 << (j % 8);
                assert!(
                    decode_message(&corrupt).is_err(),
                    "flips at bits {i} and {j} went unnoticed"
                );
                corrupt[j / 8] ^= 1 << (j % 8);
            }
            corrupt[i / 8] ^= 1 << (i % 8);
        }
        assert_eq!(corrupt, frame);
    }

    /// A v2 peer's `Hello`, byte for byte as a protocol-v2 build encoded
    /// it: the frozen envelope (legacy tag, FNV-1a) and layout mean it
    /// still decodes, and negotiation rejects it as a typed version
    /// mismatch instead of a checksum or tag error.
    #[test]
    fn frozen_v2_hello_decodes_and_fails_negotiation_typed() {
        const HELLO_V2: &str = "54505353020060001d000000000000006000000200070000000000000001\
                                00000000000000050000000000000049f90c8c7199fb13";
        let frame: Vec<u8> = (0..HELLO_V2.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&HELLO_V2[i..i + 2], 16).unwrap())
            .collect();
        let hello = WireMessage::Hello {
            protocol: 2,
            // Every capability a v2 build implemented.
            capabilities: caps::SIGNED_INGEST | caps::QUERY | caps::CACHED_QUERY,
            shard: 1,
            resume_epoch: 5,
        };
        assert_eq!(decode_message(&frame).unwrap(), hello);
        // This build still encodes a Hello to exactly those bytes.
        assert_eq!(encode_message(&hello), frame);
        assert!(matches!(
            check_hello(&hello, caps::QUERY),
            Err(WireError::VersionMismatch {
                ours: WIRE_PROTOCOL_VERSION,
                theirs: 2
            })
        ));
    }

    #[test]
    fn oversized_prefix_fails_before_allocating() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&u32::MAX.to_le_bytes());
        pipe.extend_from_slice(&[0; 64]);
        let mut c = std::io::Cursor::new(pipe);
        assert!(matches!(
            read_message(&mut c),
            Err(WireError::Codec(CodecError::Truncated { .. }))
        ));
    }

    #[test]
    fn ingest_length_is_validated_before_allocating() {
        // A validly-sealed Ingest claiming u64::MAX items must fail on the
        // length check, not attempt the allocation.
        let frame = v3_frame(|w| {
            w.put_u8(KIND_INGEST);
            w.put_u64(u64::MAX);
        });
        assert!(matches!(
            decode_message(&frame),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn signed_ingest_length_is_validated_before_allocating() {
        // Same guard as the unsigned variant: a sealed IngestSigned frame
        // claiming u64::MAX updates fails the 16-bytes-per-update length
        // check instead of attempting the allocation.
        let frame = v3_frame(|w| {
            w.put_u8(KIND_INGEST_SIGNED);
            w.put_u64(u64::MAX);
        });
        assert!(matches!(
            decode_message(&frame),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn signed_ingest_round_trips_extreme_deltas() {
        let updates = vec![
            SignedUpdate {
                item: u64::MAX,
                delta: i64::MIN,
            },
            SignedUpdate {
                item: 0,
                delta: i64::MAX,
            },
            SignedUpdate { item: 7, delta: -1 },
        ];
        let frame = encode_message(&WireMessage::IngestSigned {
            updates: updates.clone(),
        });
        assert_eq!(
            decode_message(&frame).unwrap(),
            WireMessage::IngestSigned { updates }
        );
    }

    #[test]
    fn ingest_payloads_wrap_and_unwrap_their_own_variant() {
        let items = vec![1u64, 2, 3];
        match <Item as IngestPayload>::from_ingest(Item::into_ingest(items.clone())) {
            Ok(got) => assert_eq!(got, items),
            Err(other) => panic!("item payload bounced: {other:?}"),
        }
        let updates = vec![SignedUpdate::insert(4), SignedUpdate::delete(4)];
        match <SignedUpdate as IngestPayload>::from_ingest(SignedUpdate::into_ingest(
            updates.clone(),
        )) {
            Ok(got) => assert_eq!(got, updates),
            Err(other) => panic!("signed payload bounced: {other:?}"),
        }
        // Cross-kind messages bounce back for the caller to dispatch.
        assert!(<Item as IngestPayload>::from_ingest(WireMessage::Shutdown).is_err());
        assert!(
            <SignedUpdate as IngestPayload>::from_ingest(WireMessage::Ingest { items: vec![] })
                .is_err()
        );
    }

    #[test]
    fn hello_negotiation_is_typed() {
        // A same-build Hello negotiates and hands back shard + epoch.
        assert_eq!(
            check_hello(&WireMessage::hello(4, 9), caps::ALL).unwrap(),
            (4, 9)
        );
        // A foreign protocol version round-trips the wire (frozen layout)
        // and fails negotiation as the typed VersionMismatch.
        let foreign = WireMessage::Hello {
            protocol: WIRE_PROTOCOL_VERSION + 1,
            capabilities: caps::ALL,
            shard: 0,
            resume_epoch: 0,
        };
        let decoded = decode_message(&encode_message(&foreign)).unwrap();
        assert_eq!(decoded, foreign);
        assert!(matches!(
            check_hello(&decoded, caps::QUERY),
            Err(WireError::VersionMismatch {
                ours: WIRE_PROTOCOL_VERSION,
                theirs
            }) if theirs == WIRE_PROTOCOL_VERSION + 1
        ));
        // Missing capability bits fail typed too, naming the missing bits.
        let limited = WireMessage::Hello {
            protocol: WIRE_PROTOCOL_VERSION,
            capabilities: caps::QUERY,
            shard: 0,
            resume_epoch: 0,
        };
        assert!(matches!(
            check_hello(&limited, caps::QUERY | caps::SIGNED_INGEST),
            Err(WireError::CapabilityMissing {
                missing: caps::SIGNED_INGEST
            })
        ));
        // A worker without the credit window cannot be shipped either
        // update type.
        let creditless = WireMessage::Hello {
            protocol: WIRE_PROTOCOL_VERSION,
            capabilities: caps::ALL & !caps::CREDIT,
            shard: 0,
            resume_epoch: 0,
        };
        for required in [Item::REQUIRED_CAPS, SignedUpdate::REQUIRED_CAPS] {
            assert!(matches!(
                check_hello(&creditless, required),
                Err(WireError::CapabilityMissing {
                    missing: caps::CREDIT
                })
            ));
        }
        // A non-Hello message is rejected outright.
        assert!(check_hello(&WireMessage::Shutdown, 0).is_err());
    }

    #[test]
    fn query_reply_length_is_validated_before_allocating() {
        // A sealed QueryReply claiming a huge sample length fails the
        // length check instead of attempting the allocation.
        let frame = v3_frame(|w| {
            w.put_u8(KIND_QUERY_REPLY);
            w.put_u64(1); // processed
            w.put_u64(2); // merged_fnv
            w.put_u64(3); // epoch
            w.put_u64(4); // cut
            w.put_u8(0); // cached
            w.put_u64(u64::MAX);
        });
        assert!(matches!(
            decode_message(&frame),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn bare_v1_query_decodes_as_consistent() {
        // A v1 client's Query carried no body at all; it must decode as
        // the default consistent options, not as a truncation error.
        let mut w = SnapshotWriter::new();
        w.put_tag(tag::WIRE_MESSAGE);
        w.put_u8(6); // KIND_QUERY, nothing after it
        let frame = seal(tag::WIRE_MESSAGE, &w.into_bytes());
        assert_eq!(
            decode_message(&frame).unwrap(),
            WireMessage::Query {
                options: QueryOptions::consistent(),
            }
        );
        // An unknown consistency byte still fails typed.
        let mut w = SnapshotWriter::new();
        w.put_tag(tag::WIRE_MESSAGE);
        w.put_u8(6);
        w.put_u8(9);
        let frame = seal(tag::WIRE_MESSAGE, &w.into_bytes());
        assert!(matches!(
            decode_message(&frame),
            Err(CodecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn barrier_acks_embed_snapshots_exactly() {
        let snapshot = vec![7u8; 4096];
        let frame = encode_message(&WireMessage::BarrierAck {
            shard: 2,
            epoch: 5,
            snapshot: Some(snapshot.clone()),
        });
        match decode_message(&frame).unwrap() {
            WireMessage::BarrierAck {
                shard: 2,
                epoch: 5,
                snapshot: Some(bytes),
            } => assert_eq!(bytes, snapshot),
            other => panic!("decoded {other:?}"),
        }
    }
}
