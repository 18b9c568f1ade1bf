//! The coordinator's durable job manifest: the [`JobSpec`] plus the
//! coordinator's routing position and per-shard replay parts, sealed as
//! one codec snapshot (`tag::JOB_MANIFEST`) and checkpointed through the
//! same delta chain machinery workers use.
//!
//! In memory the coordinator records replay by stream position only —
//! `(tag, chunk index)` per part. The parts are materialised here at
//! persist time, re-routed from the stream, so the manifest's encoding is
//! that of an owned replay buffer; a resuming coordinator finds each part
//! in the regenerated stream again and refuses a manifest whose parts the
//! stream does not contain.
//!
//! ## Write-before-barrier
//!
//! The manifest for checkpoint barrier `E` is appended (and fsynced)
//! to the coordinator's chain **before** the barrier is sent. That
//! ordering is the whole crash-consistency argument: a worker can only
//! have durable state at epoch `E` if barrier `E` was sent, and barrier
//! `E` is only sent after a manifest recording the exact stream cut of
//! `E` (`chunks_routed`) plus every chunk not yet covered by an acked
//! checkpoint (`replay`) is on disk. So on resume, whatever epoch `e ≤ E`
//! each worker recovered to, re-sending the buffered chunks tagged `≥ e`
//! and then re-routing the deterministic stream from chunk
//! `chunks_routed` reproduces every shard byte for byte. Chunks the dead
//! coordinator routed *after* writing the manifest died with it (pipe
//! workers die on EOF; socket workers discard in-memory state and
//! re-recover from disk on every new connection), so nothing is double
//! counted.
//!
//! The manifest is generic over the shard update type `U` (unit items or
//! signed turnstile updates) because the replay buffers embed raw
//! updates; [`peek_spec`] reads just the spec prefix so a resuming
//! coordinator can learn the sampler kind before it knows `U`.

use tps_streams::codec::{seal, tag, unseal, CodecError, SnapshotReader, SnapshotWriter};
use tps_streams::wire::IngestPayload;

use crate::config::{get_str, put_str, JobSpec};

/// One shard's durable coordinator-side state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState<U> {
    /// The last checkpoint epoch this shard acked (its chain is durable
    /// at least to here).
    pub acked_epoch: u64,
    /// The worker's endpoint (`host:port`) for socket transports — how a
    /// resumed coordinator finds the still-running listener. `None` for
    /// pipe workers (they die with the coordinator and are respawned).
    pub endpoint: Option<String>,
    /// This shard's non-empty parts of the chunks sent since its last
    /// acked checkpoint, each tagged with the epoch of the last barrier
    /// sent before it, in routing order.
    pub replay: Vec<(u64, Vec<U>)>,
}

/// The coordinator's durable state: config plus routing position plus
/// replay buffers. One manifest is appended per checkpoint barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest<U> {
    /// The full job description (the manifest *is* the config snapshot).
    pub spec: JobSpec,
    /// The checkpoint epoch this manifest precedes (see module docs).
    pub epoch: u64,
    /// Stream chunks routed so far — the cut of barrier `epoch`; a
    /// resumed coordinator regenerates the deterministic stream and
    /// continues from exactly this chunk.
    pub chunks_routed: u64,
    /// Per-shard state, in shard order.
    pub shards: Vec<ShardState<U>>,
}

impl<U: IngestPayload> Manifest<U> {
    /// Seals the manifest as one snapshot (`tag::JOB_MANIFEST`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_tag(tag::JOB_MANIFEST);
        self.spec.encode_into(&mut w);
        w.put_u64(self.epoch);
        w.put_u64(self.chunks_routed);
        w.put_len(self.shards.len());
        for shard in &self.shards {
            w.put_u64(shard.acked_epoch);
            match &shard.endpoint {
                None => w.put_u8(0),
                Some(endpoint) => {
                    w.put_u8(1);
                    put_str(&mut w, endpoint);
                }
            }
            w.put_len(shard.replay.len());
            for (epoch_tag, items) in &shard.replay {
                w.put_u64(*epoch_tag);
                U::put_chunk(&mut w, items);
            }
        }
        seal(tag::JOB_MANIFEST, &w.into_bytes())
    }

    /// Decodes a sealed manifest.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let payload = unseal(tag::JOB_MANIFEST, bytes)?;
        let mut r = SnapshotReader::new(payload);
        r.expect_tag(tag::JOB_MANIFEST)?;
        let spec = JobSpec::decode_from(&mut r)?;
        let epoch = r.get_u64()?;
        let chunks_routed = r.get_u64()?;
        let shard_count = r.get_len(9)?;
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let acked_epoch = r.get_u64()?;
            let endpoint = match r.get_u8()? {
                0 => None,
                1 => Some(get_str(&mut r)?),
                _ => {
                    return Err(CodecError::InvalidValue {
                        what: "shard endpoint option flag",
                    })
                }
            };
            let buffered = r.get_len(9)?;
            let mut replay = Vec::with_capacity(buffered);
            for _ in 0..buffered {
                let epoch_tag = r.get_u64()?;
                replay.push((epoch_tag, U::get_chunk(&mut r)?));
            }
            shards.push(ShardState {
                acked_epoch,
                endpoint,
                replay,
            });
        }
        r.finish()?;
        Ok(Self {
            spec,
            epoch,
            chunks_routed,
            shards,
        })
    }
}

/// Reads just the [`JobSpec`] prefix of a sealed manifest — enough for a
/// resuming coordinator to learn the sampler kind (and hence the update
/// type `U`) before fully decoding with [`Manifest::decode`].
pub fn peek_spec(bytes: &[u8]) -> Result<JobSpec, CodecError> {
    let payload = unseal(tag::JOB_MANIFEST, bytes)?;
    let mut r = SnapshotReader::new(payload);
    r.expect_tag(tag::JOB_MANIFEST)?;
    JobSpec::decode_from(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SamplerKind, ServiceBuilder, TransportKind};
    use tps_streams::{Item, SignedUpdate};

    fn spec(kind: SamplerKind) -> JobSpec {
        ServiceBuilder::new(kind, 2)
            .seed(99)
            .count(5_000)
            .chunk(250)
            .checkpoint_dir("/tmp/tps-manifest-test")
            .transport(TransportKind::Tcp {
                endpoints: Vec::new(),
            })
            .build()
            .unwrap()
    }

    #[test]
    fn manifest_round_trips_with_unit_items() {
        let manifest = Manifest::<Item> {
            spec: spec(SamplerKind::L2),
            epoch: 7,
            chunks_routed: 21,
            shards: vec![
                ShardState {
                    acked_epoch: 6,
                    endpoint: Some("127.0.0.1:40123".into()),
                    replay: vec![(6, vec![1, 2, 3]), (6, vec![9])],
                },
                ShardState {
                    acked_epoch: 6,
                    endpoint: None,
                    replay: Vec::new(),
                },
            ],
        };
        let bytes = manifest.encode();
        assert_eq!(Manifest::<Item>::decode(&bytes).unwrap(), manifest);
        assert_eq!(peek_spec(&bytes).unwrap(), manifest.spec);
    }

    #[test]
    fn manifest_round_trips_with_signed_updates() {
        let manifest = Manifest::<SignedUpdate> {
            spec: spec(SamplerKind::Turnstile),
            epoch: 3,
            chunks_routed: 9,
            shards: vec![ShardState {
                acked_epoch: 2,
                endpoint: None,
                replay: vec![(
                    2,
                    vec![
                        SignedUpdate { item: 4, delta: 1 },
                        SignedUpdate { item: 4, delta: -1 },
                    ],
                )],
            }],
        };
        let bytes = manifest.encode();
        assert_eq!(Manifest::<SignedUpdate>::decode(&bytes).unwrap(), manifest);
    }

    /// A coordinator killed mid-append leaves a torn frame at the tail of
    /// its manifest chain; recovery must truncate it and resume from the
    /// last *complete* manifest, which still decodes.
    #[test]
    fn torn_manifest_tail_recovers_to_last_complete_manifest() {
        use crate::store::CheckpointStore;
        use tps_streams::codec::delta::IncrementalCheckpointer;

        let dir = std::env::temp_dir().join(format!("tps-manifest-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::for_coordinator(&dir);

        let mut writer = IncrementalCheckpointer::new();
        let mut manifest = Manifest::<Item> {
            spec: spec(SamplerKind::L2),
            epoch: 0,
            chunks_routed: 0,
            shards: vec![ShardState {
                acked_epoch: 0,
                endpoint: Some("127.0.0.1:40123".into()),
                replay: Vec::new(),
            }],
        };
        for seq in 1..=3 {
            manifest.epoch = seq;
            manifest.chunks_routed = seq * 4;
            manifest.shards[0].replay = vec![(seq, vec![seq, seq + 1])];
            let frame = writer.checkpoint_bytes(manifest.encode(), seq);
            store.append_frame(frame.bytes()).unwrap();
        }

        // Tear the tail: a length prefix promising more bytes than exist,
        // as a crash between the two writes of an append would leave.
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(store.path())
                .unwrap();
            file.write_all(&512u64.to_le_bytes()).unwrap();
            file.write_all(&[0xAB; 17]).unwrap();
        }

        let chain = store.recover().unwrap().expect("chain survives the tear");
        assert_eq!(chain.epoch, 3);
        let recovered = Manifest::<Item>::decode(&chain.snapshot).unwrap();
        assert_eq!(recovered, manifest);
        // The torn tail is gone for good: appends continue cleanly.
        manifest.epoch = 4;
        let frame = writer.checkpoint_bytes(manifest.encode(), 4);
        store.append_frame(frame.bytes()).unwrap();
        assert_eq!(store.recover().unwrap().unwrap().epoch, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifests_fail_typed() {
        let manifest = Manifest::<Item> {
            spec: spec(SamplerKind::F0),
            epoch: 1,
            chunks_routed: 3,
            shards: vec![ShardState {
                acked_epoch: 0,
                endpoint: None,
                replay: vec![(0, vec![1, 2, 3])],
            }],
        };
        let mut bytes = manifest.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(Manifest::<Item>::decode(&bytes).is_err());
        // Wrong payload type: decoding unit items as signed updates trips
        // the codec (length arithmetic no longer closes), never panics.
        let signed = Manifest::<SignedUpdate>::decode(&manifest.encode());
        assert!(signed.is_err());
    }
}
