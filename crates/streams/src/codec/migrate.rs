//! Cross-version snapshot migration: the conversion step the versioning
//! policy promises.
//!
//! Decoders accept exactly [`FORMAT_VERSION`](super::FORMAT_VERSION) —
//! checkpoints are operational artifacts, and keeping every decoder
//! multi-version forever would turn each of them into a museum. Instead,
//! an old snapshot passes through this module **once**, coming out as a
//! byte-valid current-version snapshot, and everything downstream (the
//! restore path, the compat gate, the delta checkpointer) only ever sees
//! the current format.
//!
//! ## v1 → v2
//!
//! Version 2 made exactly one payload change: the sharded-sampler record
//! ([`tag::SHARDED_SAMPLER`]) now carries its ingest configuration —
//! backpressure byte, parallel cutoff, runtime chunk length — directly
//! after the strategy byte. The backpressure byte and chunk length are
//! still in the format but ignored on restore (the runtime always blocks
//! and uses one fixed chunk size); the parallel cutoff is restored. Every other
//! component's payload is bit-identical across the two versions, so its
//! migration is a header rewrite (new version stamp, recomputed checksum).
//!
//! A v1 sharded snapshot predates the configuration fields, so the
//! migrator splices in **the values a v1 decoder restored with**. These
//! constants are frozen historical facts: they must never track future
//! default changes, or migrating the same v1 artifact twice would produce
//! different states.

use super::{peek_tag, peek_version, seal, tag, unseal_at_version, CodecError, FORMAT_VERSION};

/// The backpressure byte every v1 sharded snapshot restored with (0,
/// block — the only flow control the runtime has).
pub const V1_SHARDED_BACKPRESSURE: u8 = 0;

/// The per-shard parallel cutoff every v1 sharded snapshot restored with.
pub const V1_SHARDED_PARALLEL_CUTOFF: u64 = 4_096;

/// The runtime chunk length every v1 sharded snapshot restored with.
pub const V1_SHARDED_CHUNK_LEN: u64 = 32 * 1024;

/// Converts a sealed snapshot of any supported version into a byte-valid
/// [`FORMAT_VERSION`](super::FORMAT_VERSION) snapshot. Current-version
/// input is envelope-validated and returned as-is; v1 input is migrated;
/// anything else fails with the usual typed
/// [`CodecError::UnsupportedVersion`].
pub fn upgrade_to_current(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    match peek_version(bytes)? {
        FORMAT_VERSION => {
            let component = peek_tag(bytes)?;
            unseal_at_version(component, bytes, FORMAT_VERSION)?;
            Ok(bytes.to_vec())
        }
        1 => migrate_v1_to_v2(bytes),
        found => Err(CodecError::UnsupportedVersion {
            found,
            supported: FORMAT_VERSION,
        }),
    }
}

/// Converts a sealed version-1 snapshot into a sealed version-2 snapshot
/// (see the module docs for what changes). The input envelope is fully
/// validated — magic, version, declared length, checksum — before any
/// payload is touched.
pub fn migrate_v1_to_v2(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let component = peek_tag(bytes)?;
    let payload = unseal_at_version(component, bytes, 1)?;
    let payload = match component {
        tag::SHARDED_SAMPLER => migrate_sharded_payload_v1(payload)?,
        tag::CHECKPOINT_FRAME => {
            return Err(CodecError::InvalidValue {
                what: "checkpoint frames did not exist in format version 1",
            })
        }
        _ => payload.to_vec(),
    };
    Ok(seal(component, &payload))
}

/// Splices the v2 ingest-configuration fields (with their frozen v1
/// defaults) into a v1 sharded payload.
///
/// ```text
/// v1: tag u16 | strategy u8 | cursor u64 | ...
/// v2: tag u16 | strategy u8 | backpressure u8 | cutoff u64 | chunk u64 | cursor u64 | ...
/// ```
fn migrate_sharded_payload_v1(payload: &[u8]) -> Result<Vec<u8>, CodecError> {
    const PREFIX: usize = 2 + 1; // component tag + strategy byte
    if payload.len() < PREFIX {
        return Err(CodecError::Truncated {
            needed: PREFIX as u64,
            remaining: payload.len() as u64,
        });
    }
    let mut out = Vec::with_capacity(payload.len() + 1 + 8 + 8);
    out.extend_from_slice(&payload[..PREFIX]);
    out.push(V1_SHARDED_BACKPRESSURE);
    out.extend_from_slice(&V1_SHARDED_PARALLEL_CUTOFF.to_le_bytes());
    out.extend_from_slice(&V1_SHARDED_CHUNK_LEN.to_le_bytes());
    out.extend_from_slice(&payload[PREFIX..]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{checksum, peek_version, Restore, Snapshot};
    use tps_random::{StreamRng, Xoshiro256};

    /// Rewrites a current-version envelope as version 1 (payload
    /// unchanged, checksum fixed up) — valid for components whose payload
    /// encoding did not change between the versions.
    fn downgrade_header_to_v1(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let end = bytes.len() - 8;
        let digest = checksum(&bytes[..end]);
        bytes[end..].copy_from_slice(&digest.to_le_bytes());
        bytes
    }

    #[test]
    fn unchanged_component_migrates_by_header_rewrite() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        for _ in 0..10 {
            rng.next_u64();
        }
        let v2 = rng.snapshot();
        let v1 = downgrade_header_to_v1(v2.clone());
        assert_eq!(peek_version(&v1), Ok(1));
        // The v1 bytes no longer restore directly...
        assert!(matches!(
            Xoshiro256::restore(&v1),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        // ...but migrate to exactly the current-version bytes.
        assert_eq!(migrate_v1_to_v2(&v1).unwrap(), v2);
        assert_eq!(upgrade_to_current(&v1).unwrap(), v2);
        // Current-version input passes through untouched.
        assert_eq!(upgrade_to_current(&v2).unwrap(), v2);
    }

    #[test]
    fn corrupt_or_future_input_fails_typed() {
        let v2 = Xoshiro256::seed_from_u64(1).snapshot();
        let v1 = downgrade_header_to_v1(v2.clone());
        // Bit flip inside a v1 envelope: the checksum catches it during
        // migration, not after.
        let mut flipped = v1.clone();
        flipped[20] ^= 0x40;
        assert!(matches!(
            migrate_v1_to_v2(&flipped),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Truncation fails typed at every cut.
        for cut in 0..v1.len() {
            assert!(upgrade_to_current(&v1[..cut]).is_err(), "cut {cut}");
        }
        // A version that never existed is unsupported, not misconverted.
        let mut v9 = v2.clone();
        v9[4..6].copy_from_slice(&9u16.to_le_bytes());
        let end = v9.len() - 8;
        let digest = checksum(&v9[..end]);
        v9[end..].copy_from_slice(&digest.to_le_bytes());
        assert_eq!(
            upgrade_to_current(&v9),
            Err(CodecError::UnsupportedVersion {
                found: 9,
                supported: FORMAT_VERSION,
            })
        );
    }
}
