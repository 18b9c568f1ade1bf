//! The v1→v2 migration gate: the *previous* format's golden corpus
//! (preserved verbatim under `tests/golden/snapshots_v1/`) must convert
//! through `tps_streams::codec::migrate` into byte-valid version-2
//! snapshots — for every component tag the codec still decodes.
//!
//! The headline assertion is strict: because the v2 corpus under
//! `tests/golden/snapshots/` is regenerated from the *same* deterministic
//! states, migrating each v1 file must reproduce its committed v2
//! counterpart **byte for byte** (for the sharded sampler, that proves the
//! frozen v1 ingest-config defaults are spliced exactly where the v2
//! encoder writes them). A migration that merely "decodes fine" but drifts
//! canonically fails here.

use std::path::PathBuf;

use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::ShardedSampler;
use tps_streams::codec::migrate::{migrate_v1_to_v2, upgrade_to_current};
use tps_streams::codec::{peek_version, CodecError, Restore, Snapshot, FORMAT_VERSION};

/// Every file of the preserved v1 corpus; the directory holds no other.
const V1_CORPUS_FILES: &[&str] = &[
    "xoshiro256.snap",
    "skip_ahead_engine.snap",
    "g_sampler_huber.snap",
    "g_sampler_l1l2.snap",
    "lp_sampler_p2.snap",
    "lp_sampler_p05.snap",
    "f0_sampler.snap",
    "sliding_f0_sampler.snap",
    "sliding_g_sampler.snap",
    "sliding_lp_sampler.snap",
    "sharded_lp_hash.snap",
    "misra_gries.snap",
    "suffix_count_table.snap",
    "ams_fp_estimator.snap",
];

fn golden_dir(generation: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(generation)
}

fn read(generation: &str, name: &str) -> Vec<u8> {
    let path = golden_dir(generation).join(name);
    std::fs::read(&path)
        .unwrap_or_else(|e| panic!("cannot read golden snapshot {}: {e}", path.display()))
}

/// Migrating each preserved v1 file reproduces its committed v2
/// counterpart byte for byte, and the v1 bytes themselves no longer decode
/// directly (the decoder is single-version; migration is the only door).
#[test]
fn v1_corpus_migrates_byte_identically_to_the_v2_corpus() {
    const { assert!(FORMAT_VERSION >= 2, "this gate assumes the v2 era") };
    let entries = std::fs::read_dir(golden_dir("snapshots_v1")).expect("list the v1 corpus");
    let mut listed: Vec<String> = entries
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    listed.sort();
    let mut named: Vec<&str> = V1_CORPUS_FILES.to_vec();
    named.sort();
    assert_eq!(
        listed, named,
        "snapshots_v1 must hold exactly V1_CORPUS_FILES (no orphaned snapshots)"
    );
    for &name in V1_CORPUS_FILES {
        let v1 = read("snapshots_v1", name);
        assert_eq!(
            peek_version(&v1),
            Ok(1),
            "{name}: preserved v1 corpus file is not version 1 — \
             the snapshots_v1 directory must never be regenerated"
        );
        let migrated = upgrade_to_current(&v1)
            .unwrap_or_else(|e| panic!("{name}: v1 snapshot failed to migrate ({e})"));
        assert_eq!(
            peek_version(&migrated),
            Ok(FORMAT_VERSION),
            "{name}: migration did not stamp the current version"
        );
        let v2 = read("snapshots", name);
        assert_eq!(
            migrated, v2,
            "{name}: migrating the v1 snapshot drifted from the committed v2 bytes"
        );
        // And migrate_v1_to_v2 (the explicit hop) agrees with the
        // version-dispatching wrapper.
        assert_eq!(migrate_v1_to_v2(&v1).unwrap(), v2, "{name}: hop disagrees");
    }
}

/// The migrated sharded snapshot decodes to a working sampler carrying the
/// frozen v1 ingest-configuration defaults, and answers queries like state
/// that never left the process.
#[test]
fn migrated_sharded_sampler_restores_with_frozen_v1_defaults() {
    let v1 = read("snapshots_v1", "sharded_lp_hash.snap");
    let migrated = upgrade_to_current(&v1).expect("sharded v1 snapshot migrates");
    let mut sampler: ShardedSampler<TrulyPerfectLpSampler> =
        ShardedSampler::restore(&migrated).expect("migrated sharded snapshot restores");
    assert_eq!(sampler.parallel_cutoff(), 4_096);
    assert_eq!(sampler.shard_count(), 3);
    // The spliced legacy fields (block, 32Ki-item chunks) are exactly what
    // today's encoder writes.
    assert_eq!(sampler.snapshot(), migrated);
    // The restored sampler is live: it ingests and answers.
    use tps_streams::StreamSampler;
    let before = sampler.processed();
    sampler.update_batch(&[1, 2, 3, 4, 5]);
    assert_eq!(sampler.processed(), before + 5);
    let _ = sampler.sample();
}

/// Migration inputs that are not valid v1 snapshots fail typed: corrupt
/// envelopes, truncations, and versions that never existed.
#[test]
fn invalid_migration_inputs_fail_typed() {
    let v1 = read("snapshots_v1", "lp_sampler_p2.snap");

    // Truncations at every eighth cut.
    for cut in (0..v1.len()).step_by(8) {
        assert!(
            upgrade_to_current(&v1[..cut]).is_err(),
            "truncation at {cut} migrated successfully"
        );
    }

    // A bit flip anywhere is caught by the checksum during migration.
    let mut flipped = v1.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    assert!(matches!(
        upgrade_to_current(&flipped),
        Err(CodecError::ChecksumMismatch { .. })
    ));

    // Migrating already-current bytes is the identity (validated).
    let v2 = read("snapshots", "lp_sampler_p2.snap");
    assert_eq!(upgrade_to_current(&v2).unwrap(), v2);

    // The explicit v1 hop rejects current-version input rather than
    // double-migrating it.
    assert!(matches!(
        migrate_v1_to_v2(&v2),
        Err(CodecError::UnsupportedVersion { .. })
    ));
}

/// The facade's `restore_bytes` routes older-version bytes through
/// `upgrade_to_current` by itself: a v1 golden file — which the bare
/// single-version decoder rejects — restores directly, to the same state
/// as an explicit migrate-then-restore.
#[test]
fn facade_restore_bytes_upgrades_v1_automatically() {
    use truly_perfect_samplers::restore_bytes;

    let v1 = read("snapshots_v1", "lp_sampler_p2.snap");
    assert!(matches!(
        TrulyPerfectLpSampler::restore(&v1),
        Err(CodecError::UnsupportedVersion { .. })
    ));
    let upgraded: TrulyPerfectLpSampler = restore_bytes(&v1).expect("facade upgrades v1");
    let explicit = TrulyPerfectLpSampler::restore(&upgrade_to_current(&v1).unwrap()).unwrap();
    use tps_streams::codec::Snapshot;
    assert_eq!(upgraded.snapshot(), explicit.snapshot());

    // Current-version bytes keep taking the direct path.
    let v2 = read("snapshots", "lp_sampler_p2.snap");
    let direct: TrulyPerfectLpSampler = restore_bytes(&v2).expect("current version restores");
    assert_eq!(direct.snapshot(), explicit.snapshot());

    // A version that never existed still fails typed instead of looping
    // through the migrator.
    let mut future = v2.clone();
    future[4] = 0xFF; // version lives after the 4-byte magic
    assert!(matches!(
        restore_bytes::<TrulyPerfectLpSampler>(&future),
        Err(CodecError::UnsupportedVersion { .. }) | Err(CodecError::ChecksumMismatch { .. })
    ));
}
