//! The snapshot wire format: serde-free, versioned, checksummed binary
//! checkpoints for every sampler and sketch in the workspace.
//!
//! PR 3 made the samplers mergeable, but shards could only merge inside one
//! process because no state could leave memory. This module is the missing
//! piece of the scale-out story: a sampler's entire state — reservoir
//! slots, skip-ahead schedule, suffix-count table, *exact RNG position* —
//! is written as a compact, self-describing byte artifact that a different
//! process (or machine, or future binary) can restore and keep ingesting
//! from, byte-for-byte as if the stream had never stopped.
//!
//! ## Layout
//!
//! Every sealed snapshot is:
//!
//! ```text
//! magic      4 bytes   b"TPSS"
//! version    u16 LE    FORMAT_VERSION (decoding any other version fails)
//! tag        u16 LE    component tag of the top-level component
//! length     u64 LE    payload length in bytes
//! payload    length bytes
//! checksum   u64 LE    FNV-1a 64 over everything before this field
//! ```
//!
//! The payload is a flat little-endian field sequence. Composite components
//! nest by writing their own tag first ([`Snapshot::encode_into`]), so a
//! decoder that drifts out of sync fails fast on a tag mismatch instead of
//! misinterpreting bytes. Hash maps are always encoded **sorted by key**,
//! heaps sorted by element: a snapshot is a *canonical* function of the
//! logical state, so `snapshot(restore(snapshot(x)).continue(s)) ==
//! snapshot(x.continue(s))` can be asserted byte for byte (the round-trip
//! law `tests/snapshot_roundtrip.rs` enforces for every type).
//!
//! ## Versioning policy
//!
//! [`FORMAT_VERSION`] covers the whole format: any change to any
//! component's encoding bumps it, and decoders accept exactly the current
//! version (checkpoints are short-lived operational artifacts, not
//! archives; cross-version migration is a conversion step, not a decoder
//! obligation). The committed golden corpus under `tests/golden/snapshots/`
//! plus the `snapshot-compat` CI job turn any accidental encoding change
//! into a hard failure: either the corpus decodes and re-encodes to the
//! exact committed bytes, or the PR must bump the version and regenerate
//! the corpus explicitly.
//!
//! ## Hardening
//!
//! Decoding untrusted bytes must return a typed [`CodecError`] — never
//! panic, never allocate unbounded memory. [`SnapshotReader::get_len`]
//! validates every length field against the bytes actually remaining
//! before any allocation, and restored values are range-checked before
//! they reach constructors that assert.

pub mod delta;
pub mod migrate;

use crate::measure::{CappedCount, ConcaveLog, Fair, Huber, Lp, Tukey, L1L2};
use tps_random::{KWiseHash, Xoshiro256, MERSENNE_61};

/// The four magic bytes opening every sealed snapshot.
pub const MAGIC: [u8; 4] = *b"TPSS";

/// The current snapshot format version. Bump on **any** encoding change
/// (see the module docs for the policy) and regenerate the golden corpus.
///
/// **Version history:**
///
/// * `1` — the PR 4 launch format.
/// * `2` — the sharded-sampler payload gained its ingest configuration
///   (backpressure byte, parallel cutoff, runtime chunk length), and the
///   [`delta`] incremental-checkpoint frame kind was introduced. Old
///   version-1 snapshots convert losslessly through
///   [`migrate::upgrade_to_current`]. The runtime has since lost its
///   flow-control and chunk-size knobs: the backpressure byte and chunk
///   length stay in the format (written as `0` and the fixed chunk size,
///   still validated on decode) but are ignored on restore; only the
///   parallel cutoff is restored.
pub const FORMAT_VERSION: u16 = 2;

/// Component tags: every snapshottable type owns one, written both in the
/// sealed header and at the start of the component's own field sequence.
pub mod tag {
    /// `tps_random::Xoshiro256` (the exact 256-bit RNG position).
    pub const XOSHIRO256: u16 = 0x0001;
    /// `tps_random::KWiseHash` (polynomial coefficients).
    pub const KWISE_HASH: u16 = 0x0002;
    /// `tps_streams::Lp`.
    pub const MEASURE_LP: u16 = 0x0010;
    /// `tps_streams::L1L2`.
    pub const MEASURE_L1L2: u16 = 0x0011;
    /// `tps_streams::Fair`.
    pub const MEASURE_FAIR: u16 = 0x0012;
    /// `tps_streams::Huber`.
    pub const MEASURE_HUBER: u16 = 0x0013;
    /// `tps_streams::Tukey`.
    pub const MEASURE_TUKEY: u16 = 0x0014;
    /// `tps_streams::ConcaveLog`.
    pub const MEASURE_CONCAVE_LOG: u16 = 0x0015;
    /// `tps_streams::CappedCount`.
    pub const MEASURE_CAPPED_COUNT: u16 = 0x0016;
    /// `tps_sketches::exact_counter::SuffixCountTable`.
    pub const SUFFIX_COUNT_TABLE: u16 = 0x0020;
    /// `tps_sketches::MisraGries`.
    pub const MISRA_GRIES: u16 = 0x0021;
    // 0x0022–0x0024 are retired: SpaceSaving / CountMin / CountSketch,
    // never reuse. Old snapshots carrying them fail as `TagMismatch`.
    /// `tps_sketches::AmsFpEstimator`.
    pub const AMS_FP_ESTIMATOR: u16 = 0x0025;
    /// `tps_sketches::SparseRecovery` (Reed–Solomon syndrome vector).
    pub const SPARSE_RECOVERY: u16 = 0x0026;
    /// `tps_core::engine::SkipAheadEngine`.
    pub const SKIP_AHEAD_ENGINE: u16 = 0x0030;
    /// `tps_core::framework::MeasureNormalizer`.
    pub const MEASURE_NORMALIZER: u16 = 0x0031;
    /// `tps_core::framework::MisraGriesNormalizer`.
    pub const MISRA_GRIES_NORMALIZER: u16 = 0x0032;
    /// `tps_core::framework::TrulyPerfectGSampler`.
    pub const G_SAMPLER: u16 = 0x0033;
    /// `tps_core::lp::TrulyPerfectLpSampler`.
    pub const LP_SAMPLER: u16 = 0x0034;
    /// `tps_core::f0::TrulyPerfectF0Sampler`.
    pub const F0_SAMPLER: u16 = 0x0035;
    /// `tps_core::f0::SlidingWindowF0Sampler`.
    pub const SLIDING_F0_SAMPLER: u16 = 0x0036;
    /// The cohort manager shared by the sliding-window samplers.
    pub const COHORT_MANAGER: u16 = 0x0037;
    /// `tps_core::sliding::SlidingWindowGSampler`.
    pub const SLIDING_G_SAMPLER: u16 = 0x0038;
    /// `tps_core::sliding::SlidingWindowLpSampler`.
    pub const SLIDING_LP_SAMPLER: u16 = 0x0039;
    /// `tps_core::sharded::ShardedSampler` (per-shard snapshots + router).
    pub const SHARDED_SAMPLER: u16 = 0x003A;
    /// `tps_core::turnstile::StrictTurnstileF0Sampler`.
    pub const TURNSTILE_F0_SAMPLER: u16 = 0x003B;
    /// `tps_window::SmoothHistogram`.
    pub const SMOOTH_HISTOGRAM: u16 = 0x0040;
    /// The AMS-estimator factory inside `tps_window::estimate`.
    pub const LP_FACTORY: u16 = 0x0041;
    /// `tps_window::SlidingWindowLpEstimate`.
    pub const SLIDING_LP_ESTIMATE: u16 = 0x0042;
    /// An incremental checkpoint frame ([`super::delta`]): either a full
    /// snapshot stamped with its checkpoint epoch, or a byte delta against
    /// the previous frame in the chain. Not a standalone component.
    pub const CHECKPOINT_FRAME: u16 = 0x0050;
    /// A coordinator↔worker control message ([`crate::wire`]) in the
    /// legacy envelope, FNV-checksummed: since wire protocol v3 only the
    /// frozen `Hello` is sent under it. Transient — never written to disk,
    /// so it has no golden corpus entry; it reuses the sealed envelope
    /// purely for the header/checksum hardening.
    pub const WIRE_MESSAGE: u16 = 0x0060;
    /// Every other wire message since protocol v3: the same envelope
    /// sealed with [`super::word_checksum`] instead of FNV-1a.
    pub const WIRE_FRAME: u16 = 0x0062;
    /// A coordinator job manifest (`tps-service`): the job spec plus the
    /// coordinator's durable routing position and per-shard replay
    /// buffers, appended to the coordinator's checkpoint chain before
    /// every barrier so a killed coordinator resumes byte-exactly.
    pub const JOB_MANIFEST: u16 = 0x0061;
}

/// Why a snapshot failed to decode. Every decode failure is one of these —
/// decoding never panics and never allocates past the input length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a field (or the declared payload) was read.
    Truncated {
        /// Bytes the decoder needed next.
        needed: u64,
        /// Bytes actually remaining.
        remaining: u64,
    },
    /// The input does not open with the `TPSS` magic.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The snapshot was written by a different format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
        /// The version this decoder supports.
        supported: u16,
    },
    /// A component tag did not match the type being restored.
    TagMismatch {
        /// The tag the decoder expected.
        expected: u16,
        /// The tag found in the input.
        found: u16,
    },
    /// The stored checksum does not match the recomputed one.
    ChecksumMismatch {
        /// The checksum stored in the snapshot.
        stored: u64,
        /// The checksum recomputed over the received bytes.
        computed: u64,
    },
    /// Bytes remained after the component was fully decoded.
    TrailingBytes {
        /// How many bytes were left over.
        count: u64,
    },
    /// A decoded field failed semantic validation (out-of-range parameter,
    /// broken structural invariant).
    InvalidValue {
        /// What was wrong, for diagnostics.
        what: &'static str,
    },
    /// A delta frame does not apply to the base snapshot at hand: its
    /// recorded base epoch or base checksum disagrees with the bytes the
    /// replayer reconstructed so far (a gap or reordering in the
    /// checkpoint chain).
    StaleBase {
        /// The base epoch the frame was encoded against.
        base_epoch: u64,
        /// The epoch of the base actually available.
        found_epoch: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated snapshot: needed {needed} bytes, {remaining} remaining"
                )
            }
            CodecError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            CodecError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (this build reads {supported})"
                )
            }
            CodecError::TagMismatch { expected, found } => {
                write!(
                    f,
                    "component tag mismatch: expected {expected:#06x}, found {found:#06x}"
                )
            }
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            CodecError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the component")
            }
            CodecError::InvalidValue { what } => write!(f, "invalid value: {what}"),
            CodecError::StaleBase {
                base_epoch,
                found_epoch,
            } => {
                write!(
                    f,
                    "delta frame encoded against base epoch {base_epoch}, \
                     but epoch {found_epoch} is what is available"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64 over a byte slice — the snapshot integrity checksum (integrity
/// against truncation and bit rot, not an authenticity mechanism).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The four xxHash64 primes.
const XXH_PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(XXH_PRIME_1)
        .wrapping_add(XXH_PRIME_4)
}

/// The little-endian `u64` in the first 8 bytes of `bytes`.
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte word"))
}

/// xxHash64 (seed 0) over a byte slice — the word-at-a-time integrity
/// checksum of the wire protocol's bulk frames.
///
/// [`checksum`]'s FNV-1a is one multiply per *byte* in a serial
/// dependency chain; this reads 8-byte words into four independent lanes
/// and ends in a full-avalanche finaliser, so every flipped input bit
/// reaches every output bit (a word-wise FNV would not: two bit-63 flips
/// in adjacent words cancel). Like [`checksum`], integrity only — not an
/// authenticity mechanism.
pub fn word_checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let mut lanes = [
            XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
            XXH_PRIME_2,
            0,
            XXH_PRIME_1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le_u64(word));
            }
        }
        let [a, b, c, d] = lanes;
        let mut hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            hash = xxh_merge(hash, lane);
        }
        hash
    } else {
        XXH_PRIME_5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ xxh_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u64::from(u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")));
        hash = (hash ^ half.wrapping_mul(XXH_PRIME_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
        tail = &tail[4..];
    }
    for &byte in tail {
        hash = (hash ^ u64::from(byte).wrapping_mul(XXH_PRIME_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(XXH_PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(XXH_PRIME_3);
    hash ^ (hash >> 32)
}

/// An append-only little-endian field writer for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer that holds `capacity` bytes without
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit regardless of the
    /// host's pointer width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a component tag (structural marker for nested components).
    pub fn put_tag(&mut self, tag: u16) {
        self.put_u16(tag);
    }

    /// Appends a collection length (as `u64`).
    pub fn put_len(&mut self, len: usize) {
        self.put_u64(len as u64);
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends `n` zero bytes and returns them for filling in place — the
    /// bulk path for fixed-width element arrays.
    pub fn put_zeroed(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }
}

/// A bounds-checked little-endian field reader over a snapshot payload.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n as u64,
                remaining: self.remaining() as u64,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` and checks it fits the host's `usize`.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64()?).map_err(|_| CodecError::InvalidValue {
            what: "value exceeds the host usize",
        })
    }

    /// Reads `n` raw bytes into an owned buffer. The length is validated
    /// against the bytes actually remaining before the allocation.
    pub fn get_bytes(&mut self, n: usize) -> Result<Vec<u8>, CodecError> {
        Ok(self.get_slice(n)?.to_vec())
    }

    /// Borrows the next `n` raw bytes (bounds-checked, no copy) — the bulk
    /// path for fixed-width element arrays.
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Reads a component tag and checks it against the expected one.
    pub fn expect_tag(&mut self, expected: u16) -> Result<(), CodecError> {
        let found = self.get_u16()?;
        if found != expected {
            return Err(CodecError::TagMismatch { expected, found });
        }
        Ok(())
    }

    /// Reads a collection length and validates it **before any allocation**:
    /// a collection of `len` elements each occupying at least
    /// `min_elem_bytes` in the payload must fit in the bytes remaining, so a
    /// corrupt length field fails here instead of in `Vec::with_capacity`.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.get_u64()?;
        let floor = len
            .checked_mul(min_elem_bytes.max(1) as u64)
            .ok_or(CodecError::Truncated {
                needed: u64::MAX,
                remaining: self.remaining() as u64,
            })?;
        if floor > self.remaining() as u64 {
            return Err(CodecError::Truncated {
                needed: floor,
                remaining: self.remaining() as u64,
            });
        }
        usize::try_from(len).map_err(|_| CodecError::InvalidValue {
            what: "collection length exceeds the host usize",
        })
    }

    /// Validates a two-dimensional collection size — `rows × cols` elements
    /// of at least `min_elem_bytes` each — against the bytes remaining,
    /// **before any allocation** (the 2-D analogue of
    /// [`SnapshotReader::get_len`], for grid-shaped components whose cell
    /// count is implied by separately decoded dimensions). Returns the cell
    /// count.
    pub fn check_grid(
        &self,
        rows: usize,
        cols: usize,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let cells = (rows as u64).checked_mul(cols as u64);
        let floor = cells.and_then(|c| c.checked_mul(min_elem_bytes.max(1) as u64));
        match (cells, floor) {
            (Some(cells), Some(floor)) if floor <= self.remaining() as u64 => {
                usize::try_from(cells).map_err(|_| CodecError::InvalidValue {
                    what: "grid cell count exceeds the host usize",
                })
            }
            _ => Err(CodecError::Truncated {
                needed: floor.unwrap_or(u64::MAX),
                remaining: self.remaining() as u64,
            }),
        }
    }

    /// Fails with [`CodecError::TrailingBytes`] unless the payload was
    /// consumed exactly.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                count: self.remaining() as u64,
            });
        }
        Ok(())
    }
}

/// Wraps a component payload in the sealed envelope (magic, version, tag,
/// length, checksum).
pub fn seal(component_tag: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&component_tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let digest = checksum(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Validates a sealed envelope (magic, version, tag, declared length,
/// checksum) and returns the payload slice.
pub fn unseal(expected_tag: u16, bytes: &[u8]) -> Result<&[u8], CodecError> {
    unseal_at_version(expected_tag, bytes, FORMAT_VERSION)
}

/// [`unseal`] pinned to a specific (possibly historical) format version —
/// the entry point the [`migrate`] module decodes old envelopes through.
/// Regular decoders go through [`unseal`], which accepts exactly
/// [`FORMAT_VERSION`].
pub(crate) fn unseal_at_version(
    expected_tag: u16,
    bytes: &[u8],
    accept_version: u16,
) -> Result<&[u8], CodecError> {
    unseal_with(expected_tag, bytes, accept_version, checksum)
}

/// Bytes of the sealed-envelope header (magic, version, tag, length).
pub(crate) const ENVELOPE_HEADER: usize = 4 + 2 + 2 + 8;

/// The envelope checks of [`unseal_at_version`] with the trailing digest
/// computed by `digest` instead of [`checksum`] — the wire protocol's
/// bulk frames seal with [`word_checksum`].
pub(crate) fn unseal_with(
    expected_tag: u16,
    bytes: &[u8],
    accept_version: u16,
    digest: fn(&[u8]) -> u64,
) -> Result<&[u8], CodecError> {
    if bytes.len() < ENVELOPE_HEADER + 8 {
        return Err(CodecError::Truncated {
            needed: (ENVELOPE_HEADER + 8) as u64,
            remaining: bytes.len() as u64,
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(CodecError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != accept_version {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            supported: accept_version,
        });
    }
    let found_tag = u16::from_le_bytes([bytes[6], bytes[7]]);
    if found_tag != expected_tag {
        return Err(CodecError::TagMismatch {
            expected: expected_tag,
            found: found_tag,
        });
    }
    let declared = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let actual = (bytes.len() - ENVELOPE_HEADER - 8) as u64;
    if actual < declared {
        return Err(CodecError::Truncated {
            needed: declared,
            remaining: actual,
        });
    }
    if actual > declared {
        return Err(CodecError::TrailingBytes {
            count: actual - declared,
        });
    }
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8-byte slice"));
    let computed = digest(&bytes[..body_end]);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(&bytes[ENVELOPE_HEADER..body_end])
}

/// The version stored in a sealed snapshot's header, without decoding the
/// payload (used by the compat gate to detect silent re-versioning).
pub fn peek_version(bytes: &[u8]) -> Result<u16, CodecError> {
    if bytes.len() < 6 {
        return Err(CodecError::Truncated {
            needed: 6,
            remaining: bytes.len() as u64,
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(CodecError::BadMagic { found: magic });
    }
    Ok(u16::from_le_bytes([bytes[4], bytes[5]]))
}

/// The component tag stored in a sealed snapshot's header, without decoding
/// the payload (used by the migrator to pick a payload transformation).
pub fn peek_tag(bytes: &[u8]) -> Result<u16, CodecError> {
    if bytes.len() < 8 {
        return Err(CodecError::Truncated {
            needed: 8,
            remaining: bytes.len() as u64,
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(CodecError::BadMagic { found: magic });
    }
    Ok(u16::from_le_bytes([bytes[6], bytes[7]]))
}

/// A component that can write its complete logical state into the snapshot
/// format.
///
/// The contract (enforced by `tests/snapshot_roundtrip.rs` for every
/// implementation):
///
/// * **Canonical**: the bytes are a pure function of the logical state —
///   unordered containers are written sorted, transient buffers omitted.
/// * **Complete**: restoring and continuing to ingest is byte-identical
///   (samples, estimates, *and RNG position*) to never having stopped.
pub trait Snapshot {
    /// The component tag identifying this type on the wire.
    const TAG: u16;

    /// Writes the component (its tag first, then its fields) into `w`.
    /// Composite components nest by calling their children's `encode_into`.
    fn encode_into(&self, w: &mut SnapshotWriter);

    /// The sealed snapshot: header, payload, checksum.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.encode_into(&mut w);
        seal(Self::TAG, &w.into_bytes())
    }
}

/// A component that can be rebuilt from its snapshot.
pub trait Restore: Snapshot + Sized {
    /// Reads the component (expecting its tag first) from `r`.
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError>;

    /// Restores from a sealed snapshot produced by [`Snapshot::snapshot`].
    fn restore(bytes: &[u8]) -> Result<Self, CodecError> {
        let payload = unseal(Self::TAG, bytes)?;
        let mut r = SnapshotReader::new(payload);
        let value = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

/// Writes `(key, value)` pairs sorted by key — the canonical form for hash
/// maps, whose iteration order is not part of the logical state.
pub fn put_sorted_u64_pairs(w: &mut SnapshotWriter, pairs: impl Iterator<Item = (u64, u64)>) {
    let mut v: Vec<(u64, u64)> = pairs.collect();
    v.sort_unstable_by_key(|&(k, _)| k);
    w.put_len(v.len());
    for (k, value) in v {
        w.put_u64(k);
        w.put_u64(value);
    }
}

/// Reads pairs written by [`put_sorted_u64_pairs`], enforcing strictly
/// ascending keys (duplicate or unsorted keys mean a corrupt or
/// non-canonical snapshot).
pub fn get_sorted_u64_pairs(r: &mut SnapshotReader<'_>) -> Result<Vec<(u64, u64)>, CodecError> {
    let len = r.get_len(16)?;
    let mut out = Vec::with_capacity(len);
    let mut prev: Option<u64> = None;
    for _ in 0..len {
        let key = r.get_u64()?;
        if prev.is_some_and(|p| p >= key) {
            return Err(CodecError::InvalidValue {
                what: "map keys not strictly ascending",
            });
        }
        prev = Some(key);
        out.push((key, r.get_u64()?));
    }
    Ok(out)
}

/// Writes a set of `u64` values sorted ascending (canonical form).
pub fn put_sorted_u64_set(w: &mut SnapshotWriter, values: impl Iterator<Item = u64>) {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    w.put_len(v.len());
    for value in v {
        w.put_u64(value);
    }
}

/// Reads a set written by [`put_sorted_u64_set`], enforcing strictly
/// ascending values.
pub fn get_sorted_u64_set(r: &mut SnapshotReader<'_>) -> Result<Vec<u64>, CodecError> {
    let len = r.get_len(8)?;
    let mut out = Vec::with_capacity(len);
    let mut prev: Option<u64> = None;
    for _ in 0..len {
        let value = r.get_u64()?;
        if prev.is_some_and(|p| p >= value) {
            return Err(CodecError::InvalidValue {
                what: "set values not strictly ascending",
            });
        }
        prev = Some(value);
        out.push(value);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Randomness substrate (tps-random types; the trait lives here, so the
// impls do too).
// ---------------------------------------------------------------------------

impl Snapshot for Xoshiro256 {
    const TAG: u16 = tag::XOSHIRO256;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        for word in self.state() {
            w.put_u64(word);
        }
    }
}

impl Restore for Xoshiro256 {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.get_u64()?;
        }
        if s.iter().all(|&w| w == 0) {
            return Err(CodecError::InvalidValue {
                what: "all-zero xoshiro state",
            });
        }
        Ok(Xoshiro256::from_state(s))
    }
}

impl Snapshot for KWiseHash {
    const TAG: u16 = tag::KWISE_HASH;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_len(self.coefficients().len());
        for &c in self.coefficients() {
            w.put_u64(c);
        }
    }
}

impl Restore for KWiseHash {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let len = r.get_len(8)?;
        if len == 0 {
            return Err(CodecError::InvalidValue {
                what: "k-wise hash needs at least one coefficient",
            });
        }
        let mut coefficients = Vec::with_capacity(len);
        for _ in 0..len {
            let c = r.get_u64()?;
            if c >= MERSENNE_61 {
                return Err(CodecError::InvalidValue {
                    what: "k-wise hash coefficient outside the Mersenne field",
                });
            }
            coefficients.push(c);
        }
        Ok(KWiseHash::from_coefficients(coefficients))
    }
}

// ---------------------------------------------------------------------------
// Measure functions (a sampler's G travels with its state so a restored
// sampler cannot silently change target distribution).
// ---------------------------------------------------------------------------

impl Snapshot for Lp {
    const TAG: u16 = tag::MEASURE_LP;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_f64(self.p());
    }
}

impl Restore for Lp {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let p = r.get_f64()?;
        if !(p > 0.0 && p <= 2.0) {
            return Err(CodecError::InvalidValue {
                what: "Lp exponent outside (0, 2]",
            });
        }
        Ok(Lp::new(p))
    }
}

impl Snapshot for L1L2 {
    const TAG: u16 = tag::MEASURE_L1L2;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
    }
}

impl Restore for L1L2 {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        Ok(L1L2)
    }
}

impl Snapshot for ConcaveLog {
    const TAG: u16 = tag::MEASURE_CONCAVE_LOG;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
    }
}

impl Restore for ConcaveLog {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        Ok(ConcaveLog)
    }
}

/// Encodes the shared `{ tau }` shape of the Fair / Huber / Tukey
/// M-estimators.
fn decode_tau(r: &mut SnapshotReader<'_>) -> Result<f64, CodecError> {
    let tau = r.get_f64()?;
    if !(tau > 0.0 && tau.is_finite()) {
        return Err(CodecError::InvalidValue {
            what: "M-estimator tau must be positive and finite",
        });
    }
    Ok(tau)
}

impl Snapshot for Fair {
    const TAG: u16 = tag::MEASURE_FAIR;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_f64(self.tau());
    }
}

impl Restore for Fair {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        Ok(Fair::new(decode_tau(r)?))
    }
}

impl Snapshot for Huber {
    const TAG: u16 = tag::MEASURE_HUBER;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_f64(self.tau());
    }
}

impl Restore for Huber {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        Ok(Huber::new(decode_tau(r)?))
    }
}

impl Snapshot for Tukey {
    const TAG: u16 = tag::MEASURE_TUKEY;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_f64(self.tau());
    }
}

impl Restore for Tukey {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        Ok(Tukey::new(decode_tau(r)?))
    }
}

impl Snapshot for CappedCount {
    const TAG: u16 = tag::MEASURE_CAPPED_COUNT;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_u64(self.cap());
    }
}

impl Restore for CappedCount {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let cap = r.get_u64()?;
        if cap == 0 {
            return Err(CodecError::InvalidValue {
                what: "capped-count cap must be positive",
            });
        }
        Ok(CappedCount::new(cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_random::StreamRng;

    #[test]
    fn rng_snapshot_preserves_exact_position() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..100 {
            rng.next_u64();
        }
        let bytes = rng.snapshot();
        let mut restored = Xoshiro256::restore(&bytes).unwrap();
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn word_checksum_is_xxhash64() {
        // Published XXH64 (seed 0) values.
        assert_eq!(word_checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(word_checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(word_checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(word_checksum(b"xxhash"), 0x32DD_3895_2C4B_C720);
        // Every single-bit flip of a multi-stripe input moves the digest.
        let data: Vec<u8> = (0..77u8).collect();
        let base = word_checksum(&data);
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(word_checksum(&flipped), base, "bit {bit}");
        }
    }

    #[test]
    fn sealed_envelope_rejects_typed_corruptions() {
        let rng = Xoshiro256::seed_from_u64(1);
        let good = rng.snapshot();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Xoshiro256::restore(&bad),
            Err(CodecError::BadMagic { .. })
        ));
        // Future version (checksum fixed up so the version check is what
        // fires).
        let mut future = good.clone();
        future[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let end = future.len() - 8;
        let digest = checksum(&future[..end]);
        future[end..].copy_from_slice(&digest.to_le_bytes());
        assert_eq!(
            Xoshiro256::restore(&future),
            Err(CodecError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION,
            })
        );
        // Wrong component.
        assert!(matches!(
            KWiseHash::restore(&good),
            Err(CodecError::TagMismatch { .. })
        ));
        // Flipped payload bit.
        let mut flipped = good.clone();
        flipped[20] ^= 0x10;
        assert!(matches!(
            Xoshiro256::restore(&flipped),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Every truncation fails without panicking.
        for cut in 0..good.len() {
            assert!(Xoshiro256::restore(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn length_fields_are_validated_before_allocation() {
        // A payload claiming u64::MAX coefficients must fail fast on the
        // length check, not attempt the allocation.
        let mut w = SnapshotWriter::new();
        w.put_tag(tag::KWISE_HASH);
        w.put_u64(u64::MAX);
        let bytes = seal(tag::KWISE_HASH, &w.into_bytes());
        assert!(matches!(
            KWiseHash::restore(&bytes),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn measures_round_trip() {
        let bytes = Lp::new(1.5).snapshot();
        assert_eq!(Lp::restore(&bytes).unwrap().p(), 1.5);
        let bytes = Huber::new(2.5).snapshot();
        assert_eq!(Huber::restore(&bytes).unwrap().tau(), 2.5);
        let bytes = Fair::new(0.5).snapshot();
        assert_eq!(Fair::restore(&bytes).unwrap().tau(), 0.5);
        let bytes = Tukey::new(4.0).snapshot();
        assert_eq!(Tukey::restore(&bytes).unwrap().tau(), 4.0);
        let bytes = CappedCount::new(9).snapshot();
        assert_eq!(CappedCount::restore(&bytes).unwrap().cap(), 9);
        assert!(L1L2::restore(&L1L2.snapshot()).is_ok());
        assert!(ConcaveLog::restore(&ConcaveLog.snapshot()).is_ok());
        // Out-of-range parameters come back as typed errors, not panics.
        let mut w = SnapshotWriter::new();
        w.put_tag(tag::MEASURE_LP);
        w.put_f64(3.5);
        assert!(matches!(
            Lp::restore(&seal(tag::MEASURE_LP, &w.into_bytes())),
            Err(CodecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn kwise_hash_round_trips_exactly() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let h = KWiseHash::new(&mut rng, 4);
        let restored = KWiseHash::restore(&h.snapshot()).unwrap();
        for key in 0..256u64 {
            assert_eq!(h.hash(key), restored.hash(key));
        }
    }

    #[test]
    fn peek_version_reads_the_header() {
        let bytes = L1L2.snapshot();
        assert_eq!(peek_version(&bytes), Ok(FORMAT_VERSION));
        assert!(peek_version(&bytes[..3]).is_err());
    }
}
