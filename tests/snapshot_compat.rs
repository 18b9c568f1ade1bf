//! The snapshot-compat gate: the committed golden corpus under
//! `tests/golden/snapshots/` must stay decodable, canonical and
//! current-version. This is the CI job that turns any accidental wire-format
//! change into a hard failure:
//!
//! * every corpus file must **decode** with the current decoder (a PR that
//!   changes an encoding must bump `FORMAT_VERSION` and regenerate the
//!   corpus — silently breaking old checkpoints fails here);
//! * decoding and re-encoding must reproduce the committed bytes exactly
//!   (snapshots are canonical, so any encoder drift without a version bump
//!   also fails here);
//! * every file's header must carry the current `FORMAT_VERSION` (a bumped
//!   version with a stale corpus — a silent re-version — fails both the
//!   decode and this explicit check).
//!
//! Regenerate after an intentional format change with:
//!
//! ```bash
//! REGENERATE_GOLDEN_SNAPSHOTS=1 cargo test --test snapshot_compat
//! ```
//!
//! and commit the new files together with the `FORMAT_VERSION` bump.
//!
//! The same corpus doubles as the decode-hardening fixture: truncated,
//! bit-flipped, wrong-magic, future-version and oversized-length variants
//! of every file must come back as typed [`CodecError`]s — never a panic,
//! never an unbounded allocation.

use std::path::PathBuf;

use tps_core::engine::SkipAheadEngine;
use tps_core::f0::{SlidingWindowF0Sampler, TrulyPerfectF0Sampler};
use tps_core::framework::{MeasureNormalizer, TrulyPerfectGSampler};
use tps_core::lp::TrulyPerfectLpSampler;
use tps_core::sharded::{ShardedSampler, ShardedSamplerBuilder};
use tps_core::sliding::{SlidingWindowGSampler, SlidingWindowLpSampler};
use tps_core::turnstile::StrictTurnstileF0Sampler;
use tps_random::{default_rng, Xoshiro256};
use tps_sketches::exact_counter::SuffixCountTable;
use tps_sketches::{AmsFpEstimator, MisraGries, SparseRecovery};
use tps_streams::codec::{self, peek_version, CodecError, Restore, Snapshot, FORMAT_VERSION};
use tps_streams::{
    Estimator, Huber, Item, Lp, SignedUpdate, SlidingWindowSampler, SpaceUsage, StreamSampler,
    TurnstileSampler, L1L2,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("snapshots")
}

/// An integer-only skewed stream (no float transcendentals, so corpus
/// generation is bit-stable across platforms and build profiles).
fn skewed_stream(len: usize, universe: u64) -> Vec<Item> {
    (0..len as u64)
        .map(|i| {
            let z = i
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            if z % 3 == 0 {
                z % 5
            } else {
                z % universe
            }
        })
        .collect()
}

/// Builds the full corpus deterministically: one representative snapshot
/// per top-level component tag, small enough to commit, states reached by
/// real ingestion (thresholds crossed, cohorts retired, shards skewed).
fn build_corpus() -> Vec<(&'static str, Vec<u8>)> {
    let stream = skewed_stream(3_000, 97);
    let mut corpus: Vec<(&'static str, Vec<u8>)> = Vec::new();

    let mut rng = Xoshiro256::seed_from_u64(42);
    for _ in 0..57 {
        use tps_random::StreamRng;
        rng.next_u64();
    }
    corpus.push(("xoshiro256.snap", rng.snapshot()));

    let mut engine = SkipAheadEngine::with_seed(5, 7);
    engine.update_batch(&stream);
    corpus.push(("skip_ahead_engine.snap", engine.snapshot()));

    let g = Huber::new(2.0);
    let mut huber = TrulyPerfectGSampler::with_instances(g, MeasureNormalizer::new(g), 8, 11);
    huber.update_batch(&stream);
    corpus.push(("g_sampler_huber.snap", huber.snapshot()));

    let mut l1l2 = TrulyPerfectGSampler::with_instances(L1L2, MeasureNormalizer::new(L1L2), 6, 13);
    l1l2.update_batch(&stream);
    corpus.push(("g_sampler_l1l2.snap", l1l2.snapshot()));

    let mut lp2 = TrulyPerfectLpSampler::new(2.0, 64, 0.2, 17);
    lp2.update_batch(&stream);
    corpus.push(("lp_sampler_p2.snap", lp2.snapshot()));

    let mut lp_half = TrulyPerfectLpSampler::fractional(0.5, 3_000, 0.3, 19);
    lp_half.update_batch(&stream);
    corpus.push(("lp_sampler_p05.snap", lp_half.snapshot()));

    // Overflows the sqrt(400) = 20 first-distinct threshold.
    let wide = skewed_stream(1_500, 380);
    let mut f0 = TrulyPerfectF0Sampler::new(400, 0.1, 23);
    f0.update_batch(&wide);
    corpus.push(("f0_sampler.snap", f0.snapshot()));

    let mut sliding_f0 = SlidingWindowF0Sampler::new(400, 120, 0.1, 29);
    for &x in &wide {
        SlidingWindowSampler::update(&mut sliding_f0, x);
    }
    corpus.push(("sliding_f0_sampler.snap", sliding_f0.snapshot()));

    // 3000 updates over window 250 → many cohort births and retirements.
    let mut sliding_g = SlidingWindowGSampler::new(Lp::new(1.0), 250, 0.1, 31);
    sliding_g.update_batch(&stream);
    corpus.push(("sliding_g_sampler.snap", sliding_g.snapshot()));

    let mut sliding_lp = SlidingWindowLpSampler::with_estimator_size(2.0, 64, 0.2, 2, 6, 37);
    sliding_lp.update_batch(&skewed_stream(500, 23));
    corpus.push(("sliding_lp_sampler.snap", sliding_lp.snapshot()));

    let mut sharded = ShardedSamplerBuilder::new(3)
        .seed(41)
        .build(|idx| TrulyPerfectLpSampler::new(2.0, 64, 0.2, 41 ^ ((idx as u64) << 32)));
    sharded.update_batch(&stream);
    corpus.push(("sharded_lp_hash.snap", sharded.snapshot()));

    let mut mg = MisraGries::new(16);
    mg.update_batch(&stream);
    corpus.push(("misra_gries.snap", mg.snapshot()));

    let mut table = SuffixCountTable::new();
    table.track(1);
    table.track(4);
    table.update_batch(&stream);
    corpus.push(("suffix_count_table.snap", table.snapshot()));

    let mut ams = AmsFpEstimator::new(2.0, 3, 8, default_rng(53));
    for &x in &stream[..1_000] {
        Estimator::update(&mut ams, x);
    }
    corpus.push(("ams_fp_estimator.snap", ams.snapshot()));

    // Strict-turnstile kinds (new tags in PR 8): signed updates with a
    // deterministic sprinkling of deletes, counts never negative.
    let signed: Vec<SignedUpdate> = skewed_stream(1_200, 90)
        .into_iter()
        .enumerate()
        .flat_map(|(i, item)| {
            let mut updates = vec![SignedUpdate { item, delta: 1 }];
            if i % 3 == 0 {
                updates.push(SignedUpdate { item, delta: 1 });
                updates.push(SignedUpdate { item, delta: -1 });
            }
            updates
        })
        .collect();

    let mut recovery = SparseRecovery::new(12, 90);
    for &u in &signed {
        recovery.update(u);
    }
    corpus.push(("sparse_recovery.snap", recovery.snapshot()));

    let mut turnstile = StrictTurnstileF0Sampler::new(90, 59);
    turnstile.update_batch(&signed);
    corpus.push(("turnstile_f0_sampler.snap", turnstile.snapshot()));

    let mut sharded_turnstile = ShardedSamplerBuilder::new(3)
        .seed(61)
        .build_turnstile(|_idx| StrictTurnstileF0Sampler::new(90, 61));
    sharded_turnstile.update_batch(&signed);
    corpus.push(("sharded_turnstile_hash.snap", sharded_turnstile.snapshot()));

    corpus
}

/// The committed corpus file names — deleting a file from the corpus
/// without touching this list fails the gate, and so does a file in the
/// corpus directory that this list does not name.
const CORPUS_FILES: &[&str] = &[
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
    "sparse_recovery.snap",
    "turnstile_f0_sampler.snap",
    "sharded_turnstile_hash.snap",
];

/// The file names in `dir`, sorted.
fn listing(dir: &std::path::Path) -> Vec<String> {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()));
    let mut names: Vec<String> = entries
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn reencode<T: Restore>(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    Ok(T::restore(bytes)?.snapshot())
}

/// Decodes a corpus file as the type its name announces and re-encodes it.
fn decode_and_reencode(name: &str, bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    match name {
        "xoshiro256.snap" => reencode::<Xoshiro256>(bytes),
        "skip_ahead_engine.snap" => reencode::<SkipAheadEngine>(bytes),
        "g_sampler_huber.snap" => {
            reencode::<TrulyPerfectGSampler<Huber, MeasureNormalizer<Huber>>>(bytes)
        }
        "g_sampler_l1l2.snap" => {
            reencode::<TrulyPerfectGSampler<L1L2, MeasureNormalizer<L1L2>>>(bytes)
        }
        "lp_sampler_p2.snap" | "lp_sampler_p05.snap" => reencode::<TrulyPerfectLpSampler>(bytes),
        "f0_sampler.snap" => reencode::<TrulyPerfectF0Sampler>(bytes),
        "sliding_f0_sampler.snap" => reencode::<SlidingWindowF0Sampler>(bytes),
        "sliding_g_sampler.snap" => reencode::<SlidingWindowGSampler<Lp>>(bytes),
        "sliding_lp_sampler.snap" => reencode::<SlidingWindowLpSampler>(bytes),
        "sharded_lp_hash.snap" => reencode::<ShardedSampler<TrulyPerfectLpSampler>>(bytes),
        "misra_gries.snap" => reencode::<MisraGries>(bytes),
        "suffix_count_table.snap" => reencode::<SuffixCountTable>(bytes),
        "ams_fp_estimator.snap" => reencode::<AmsFpEstimator>(bytes),
        "sparse_recovery.snap" => reencode::<SparseRecovery>(bytes),
        "turnstile_f0_sampler.snap" => reencode::<StrictTurnstileF0Sampler>(bytes),
        "sharded_turnstile_hash.snap" => {
            reencode::<ShardedSampler<StrictTurnstileF0Sampler, SignedUpdate>>(bytes)
        }
        other => panic!("corpus file {other} has no registered decoder"),
    }
}

/// True while the regeneration test is rewriting the corpus in a parallel
/// test thread; the read-side tests skip in that mode instead of racing
/// half-written files.
fn regenerating() -> bool {
    std::env::var_os("REGENERATE_GOLDEN_SNAPSHOTS").is_some()
}

fn read_corpus_file(name: &str) -> Vec<u8> {
    let path = corpus_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read committed golden snapshot {}: {e} \
             (REGENERATE_GOLDEN_SNAPSHOTS=1 cargo test --test snapshot_compat)",
            path.display()
        )
    })
}

/// The compat gate itself (see the module docs). With
/// `REGENERATE_GOLDEN_SNAPSHOTS=1` it rewrites the corpus instead.
#[test]
fn golden_corpus_decodes_and_reencodes_byte_identically() {
    if regenerating() {
        let dir = corpus_dir();
        std::fs::create_dir_all(&dir).expect("create corpus dir");
        for (name, bytes) in build_corpus() {
            std::fs::write(dir.join(name), &bytes).expect("write corpus file");
        }
        eprintln!("regenerated {} golden snapshots", CORPUS_FILES.len());
        return;
    }
    let built: Vec<&str> = build_corpus().iter().map(|&(n, _)| n).collect();
    assert_eq!(
        built, CORPUS_FILES,
        "CORPUS_FILES must list exactly the snapshots build_corpus produces"
    );
    let mut named = CORPUS_FILES.to_vec();
    named.sort();
    assert_eq!(
        listing(&corpus_dir()),
        named,
        "the corpus directory must hold exactly CORPUS_FILES (no orphaned snapshots)"
    );
    for &name in CORPUS_FILES {
        let bytes = read_corpus_file(name);
        assert_eq!(
            peek_version(&bytes),
            Ok(FORMAT_VERSION),
            "{name}: committed snapshot is not at the current format version — \
             bump FORMAT_VERSION and regenerate the corpus explicitly"
        );
        let reencoded = decode_and_reencode(name, &bytes).unwrap_or_else(|e| {
            panic!(
                "{name}: committed golden snapshot no longer decodes ({e}) — \
                 the wire format changed without a version bump + corpus regeneration"
            )
        });
        assert_eq!(
            reencoded, bytes,
            "{name}: decode → re-encode changed the bytes — the encoder drifted \
             without a version bump + corpus regeneration"
        );
    }
}

/// Decode hardening, part 1: every truncation of every corpus file returns
/// a typed error (never panics, never succeeds).
#[test]
fn truncated_snapshots_fail_with_typed_errors() {
    if regenerating() {
        return;
    }
    for &name in CORPUS_FILES {
        let bytes = read_corpus_file(name);
        let step = (bytes.len() / 512).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            match decode_and_reencode(name, &bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("{name}: truncation at {cut} decoded successfully"),
            }
        }
    }
}

/// Decode hardening, part 2: single-bit corruption anywhere in the file is
/// rejected (the FNV-1a checksum, or an earlier header check, catches it).
#[test]
fn bit_flipped_snapshots_fail_with_typed_errors() {
    if regenerating() {
        return;
    }
    for &name in CORPUS_FILES {
        let bytes = read_corpus_file(name);
        let step = (bytes.len() / 256).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                match decode_and_reencode(name, &corrupt) {
                    Err(_) => {}
                    Ok(_) => panic!("{name}: flipped bit {bit} of byte {pos} went unnoticed"),
                }
            }
        }
    }
}

/// Re-seals a tampered snapshot with a valid checksum, so the named header
/// check (not the checksum) is what the decoder must catch.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let end = bytes.len() - 8;
    let digest = codec::checksum(&bytes[..end]);
    bytes[end..].copy_from_slice(&digest.to_le_bytes());
    bytes
}

/// Decode hardening, part 3: wrong magic, future version, wrong component
/// tag and oversized length fields each produce their specific typed error
/// — with checksums fixed up so the targeted check is the one that fires —
/// and a length-field attack fails before any allocation.
#[test]
fn tampered_headers_fail_with_specific_errors() {
    if regenerating() {
        return;
    }
    for &name in CORPUS_FILES {
        let bytes = read_corpus_file(name);

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        let wrong_magic = reseal(wrong_magic);
        assert!(
            matches!(
                decode_and_reencode(name, &wrong_magic),
                Err(CodecError::BadMagic { .. })
            ),
            "{name}: wrong magic not reported"
        );

        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let future = reseal(future);
        assert_eq!(
            decode_and_reencode(name, &future),
            Err(CodecError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION,
            }),
            "{name}: future version not reported"
        );

        let mut wrong_tag = bytes.clone();
        wrong_tag[6] ^= 0xFF;
        let wrong_tag = reseal(wrong_tag);
        assert!(
            matches!(
                decode_and_reencode(name, &wrong_tag),
                Err(CodecError::TagMismatch { .. })
            ),
            "{name}: wrong component tag not reported"
        );

        // A length field claiming far more payload than exists must fail
        // fast (Truncated), not allocate.
        let mut oversized = bytes.clone();
        oversized[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let oversized = reseal(oversized);
        assert!(
            matches!(
                decode_and_reencode(name, &oversized),
                Err(CodecError::Truncated { .. })
            ),
            "{name}: oversized declared length not reported"
        );

        // Trailing garbage after a valid envelope is also rejected.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0u8; 16]);
        assert!(
            decode_and_reencode(name, &padded).is_err(),
            "{name}: trailing bytes went unnoticed"
        );
    }
}

/// Retired encodings fail typed. Round-robin routing is gone, so a sharded
/// record whose strategy byte says round-robin (1), or whose legacy cursor
/// is nonzero, is `InvalidValue`. The retired sketch tags 0x0022–0x0024
/// name no kept type, so an envelope carrying one is a `TagMismatch`.
#[test]
fn retired_encodings_fail_typed() {
    if regenerating() {
        return;
    }
    // Envelope header (16 bytes), then the payload: tag u16, strategy u8,
    // backpressure u8, cutoff u64, chunk length u64, cursor u64.
    const STRATEGY: usize = 16 + 2;
    const CURSOR: usize = STRATEGY + 1 + 1 + 8 + 8;
    let bytes = read_corpus_file("sharded_lp_hash.snap");
    assert_eq!(bytes[STRATEGY], 0, "the corpus file is hash-routed");
    assert_eq!(bytes[CURSOR..CURSOR + 8], [0; 8]);
    let mut round_robin = bytes.clone();
    round_robin[STRATEGY] = 1;
    let mut cursor = bytes.clone();
    cursor[CURSOR] = 1;
    for tampered in [round_robin, cursor] {
        assert!(matches!(
            ShardedSampler::<TrulyPerfectLpSampler>::restore(&reseal(tampered)),
            Err(CodecError::InvalidValue { .. })
        ));
    }

    for retired in 0x0022u16..=0x0024 {
        let mut payload = retired.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0u8; 32]);
        let sealed = codec::seal(retired, &payload);
        assert!(
            matches!(
                MisraGries::restore(&sealed),
                Err(CodecError::TagMismatch { .. })
            ),
            "tag {retired:#06x} restored as MisraGries"
        );
        assert!(
            matches!(
                ShardedSampler::<TrulyPerfectLpSampler>::restore(&sealed),
                Err(CodecError::TagMismatch { .. })
            ),
            "tag {retired:#06x} restored as ShardedSampler"
        );
    }
}

/// Decode hardening, part 4: adversarial snapshots with *valid* checksums
/// (the FNV checksum is an integrity check, not an authenticity mechanism)
/// must still come back as typed errors or cheap successes — size fields
/// that are legal state but untrusted must never drive an allocation, and
/// no decodable state may panic later inside a query.
#[test]
fn crafted_snapshots_never_panic_or_overallocate() {
    use tps_streams::codec::{seal, tag, SnapshotWriter};
    use tps_streams::SampleOutcome;

    // A Misra–Gries summary declaring an absurd counter budget but holding
    // nothing: `capacity` is legal state, so this decodes — but it must do
    // so instantly, without sizing an allocation from the field.
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::MISRA_GRIES);
    w.put_u64(1 << 60); // capacity
    w.put_u64(0); // processed
    w.put_u64(0); // decrements
    w.put_u64(0); // counter count
    let huge_mg = MisraGries::restore(&seal(tag::MISRA_GRIES, &w.into_bytes()))
        .expect("oversized capacity is legal state");
    assert_eq!(huge_mg.capacity(), 1 << 60);
    assert_eq!(huge_mg.estimate(7), 0);

    // The same absurd budget holding two counters: the flat counter table
    // is sized from the pairs, and grows from there as updates insert.
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::MISRA_GRIES);
    w.put_usize(usize::MAX / 2); // capacity
    w.put_u64(10); // processed
    w.put_u64(0); // decrements
    w.put_u64(2); // counter count
    w.put_u64(3);
    w.put_u64(4);
    w.put_u64(9);
    w.put_u64(6);
    let mut huge_mg = MisraGries::restore(&seal(tag::MISRA_GRIES, &w.into_bytes()))
        .expect("oversized capacity is legal state");
    assert!(huge_mg.space_bytes() < 4096, "table sized from capacity");
    huge_mg.update_batch(&(0..100).collect::<Vec<Item>>());
    assert_eq!(huge_mg.processed(), 110);
    assert_eq!(huge_mg.estimate(3), 5);
    assert_eq!(huge_mg.estimate(9), 7);
    assert_eq!(huge_mg.estimate(50), 1);
    assert!(
        huge_mg.space_bytes() < 16 * 4096,
        "table outgrew its counters"
    );

    // A counter whose level `count + decrements` overflows u64.
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::MISRA_GRIES);
    w.put_u64(4); // capacity
    w.put_u64(u64::MAX); // processed
    w.put_u64(u64::MAX - 1); // decrements
    w.put_u64(1); // counter count
    w.put_u64(7);
    w.put_u64(2);
    assert!(matches!(
        MisraGries::restore(&seal(tag::MISRA_GRIES, &w.into_bytes())),
        Err(CodecError::InvalidValue { .. })
    ));

    // An F0 snapshot claiming a non-empty, non-overflowed stream with an
    // empty first-distinct set: live ingestion can never produce this, and
    // accepting it would make the next `sample()` index into an empty
    // vector — the decoder must reject it.
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::F0_SAMPLER);
    w.put_u64(1); // universe
    w.put_u64(1); // threshold
    w.put_u8(0); // overflowed = false
    w.put_u64(1); // processed
    Xoshiro256::seed_from_u64(1).encode_into(&mut w);
    w.put_u64(0); // first-distinct count (inconsistent with processed = 1)
    w.put_u64(0); // candidate repetitions
    assert!(matches!(
        TrulyPerfectF0Sampler::restore(&seal(tag::F0_SAMPLER, &w.into_bytes())),
        Err(CodecError::InvalidValue { .. })
    ));

    // The overflowed variant of the same shape IS reachable live-adjacent
    // state for queries: it must decode and fail the sample cleanly.
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::F0_SAMPLER);
    w.put_u64(1); // universe
    w.put_u64(1); // threshold
    w.put_u8(1); // overflowed = true
    w.put_u64(1); // processed
    Xoshiro256::seed_from_u64(1).encode_into(&mut w);
    w.put_u64(0); // first-distinct count
    w.put_u64(0); // candidate repetitions
    let mut overflowed =
        TrulyPerfectF0Sampler::restore(&seal(tag::F0_SAMPLER, &w.into_bytes())).unwrap();
    assert_eq!(overflowed.sample(), SampleOutcome::Fail);

    // Grid-shaped components with dimension fields whose product
    // overflows or dwarfs the payload fail fast through `check_grid`: an
    // AMS estimator's rows × cols units of at least 17 bytes each.
    for (rows, cols) in [(u64::MAX / 2, 4), (1 << 20, 1 << 20)] {
        let mut w = SnapshotWriter::new();
        w.put_tag(tag::AMS_FP_ESTIMATOR);
        w.put_f64(2.0); // p
        w.put_u64(rows);
        w.put_u64(cols);
        w.put_u64(0); // processed
        Xoshiro256::seed_from_u64(3).encode_into(&mut w);
        assert!(matches!(
            AmsFpEstimator::restore(&seal(tag::AMS_FP_ESTIMATOR, &w.into_bytes())),
            Err(CodecError::Truncated { .. })
        ));
    }
}

/// Decode hardening, part 5: restored state must never panic at query
/// time. A sharded snapshot whose individually-valid shards disagree on
/// configuration would explode inside the query-time fold-merge; the
/// decoder must reject it up front. Likewise, factory parameters that size
/// *future* allocations (smooth-histogram estimator dims, per-cohort unit
/// counts) are bounded at decode time even though no payload length covers
/// them.
#[test]
fn inconsistent_or_oversized_deferred_state_is_rejected() {
    use tps_streams::codec::{seal, tag, SnapshotWriter};

    // Two shards with different exponents: each decodes alone, merged they
    // would hit the Lp merge assertion.
    let stream = skewed_stream(500, 31);
    let mut shard_a = TrulyPerfectLpSampler::new(2.0, 64, 0.2, 1);
    let mut shard_b = TrulyPerfectLpSampler::new(1.5, 64, 0.2, 2);
    shard_a.update_batch(&stream);
    shard_b.update_batch(&stream);
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::SHARDED_SAMPLER);
    w.put_u8(0); // hash strategy
    w.put_u8(0); // backpressure: block
    w.put_u64(4_096); // parallel cutoff
    w.put_u64(32 * 1024); // chunk length
    w.put_u64(0); // cursor
    w.put_u64(1_000); // processed
    Xoshiro256::seed_from_u64(3).encode_into(&mut w);
    w.put_u64(2); // shard count
    shard_a.encode_into(&mut w);
    shard_b.encode_into(&mut w);
    assert!(matches!(
        ShardedSampler::<TrulyPerfectLpSampler>::restore(&seal(
            tag::SHARDED_SAMPLER,
            &w.into_bytes()
        )),
        Err(CodecError::InvalidValue { .. })
    ));

    // A window-norm estimator whose factory declares absurd dimensions:
    // nothing in the payload corroborates them (they size future
    // checkpoints), so the decoder must bound them.
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::SLIDING_LP_ESTIMATE);
    w.put_f64(2.0); // p
    w.put_f64(1.5); // safety factor
    w.put_tag(tag::SMOOTH_HISTOGRAM);
    w.put_u64(100); // window
    w.put_f64(0.1); // beta
    w.put_u64(0); // time
    w.put_tag(tag::LP_FACTORY);
    w.put_f64(2.0); // p
    w.put_u64(1 << 31); // rows
    w.put_u64(1 << 31); // cols
    Xoshiro256::seed_from_u64(5).encode_into(&mut w);
    w.put_u64(0); // checkpoints
    assert!(matches!(
        tps_window::SlidingWindowLpEstimate::restore(&seal(
            tag::SLIDING_LP_ESTIMATE,
            &w.into_bytes()
        )),
        Err(CodecError::InvalidValue { .. })
    ));

    // An empty cohort manager (inside a sliding G-sampler) declaring an
    // absurd per-cohort unit count: the first post-restore epoch would
    // allocate it.
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::SLIDING_G_SAMPLER);
    w.put_tag(tag::MEASURE_LP);
    w.put_f64(1.0);
    w.put_tag(tag::COHORT_MANAGER);
    w.put_u64(100); // window
    w.put_u64(1 << 60); // per-cohort units
    w.put_u64(0); // time
    Xoshiro256::seed_from_u64(7).encode_into(&mut w);
    w.put_u64(0); // cohorts
    assert!(matches!(
        SlidingWindowGSampler::<Lp>::restore(&seal(tag::SLIDING_G_SAMPLER, &w.into_bytes())),
        Err(CodecError::InvalidValue { .. })
    ));
}

/// Decode hardening, part 6: configuration smuggling. The exponent and
/// shard-count fields travel in several places; a crafted snapshot must
/// not decode with disagreeing copies (silently wrong distributions) or a
/// shard count sized to blow up the first post-restore scatter.
#[test]
fn disagreeing_or_oversized_configuration_is_rejected() {
    use tps_streams::codec::{seal, tag, SnapshotWriter};
    use tps_streams::Snapshot as _;

    // An honest L2 sampler, re-encoded with the top-level exponent nudged:
    // the sampler/measure cross-check must catch it.
    let mut honest = TrulyPerfectLpSampler::new(2.0, 64, 0.2, 3);
    honest.update_batch(&skewed_stream(200, 31));
    let mut w = SnapshotWriter::new();
    honest.encode_into(&mut w);
    let mut payload = w.into_bytes();
    // Field layout: tag u16, then the f64 exponent.
    payload[2..10].copy_from_slice(&1.5f64.to_bits().to_le_bytes());
    assert!(matches!(
        TrulyPerfectLpSampler::restore(&seal(tag::LP_SAMPLER, &payload)),
        Err(CodecError::InvalidValue { .. })
    ));

    // Mixed-measure shards (same instance counts, different Huber tau):
    // merge_compatible at decode time must reject what the query-time
    // fold-merge would silently mis-sample.
    let mut shard_a = TrulyPerfectGSampler::with_instances(
        Huber::new(1.0),
        MeasureNormalizer::new(Huber::new(1.0)),
        4,
        1,
    );
    let mut shard_b = TrulyPerfectGSampler::with_instances(
        Huber::new(1000.0),
        MeasureNormalizer::new(Huber::new(1000.0)),
        4,
        2,
    );
    shard_a.update_batch(&skewed_stream(200, 31));
    shard_b.update_batch(&skewed_stream(200, 31));
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::SHARDED_SAMPLER);
    w.put_u8(0);
    w.put_u8(0); // backpressure: block
    w.put_u64(4_096); // parallel cutoff
    w.put_u64(32 * 1024); // chunk length
    w.put_u64(0);
    w.put_u64(400);
    Xoshiro256::seed_from_u64(9).encode_into(&mut w);
    w.put_u64(2);
    shard_a.encode_into(&mut w);
    shard_b.encode_into(&mut w);
    assert!(matches!(
        ShardedSampler::<TrulyPerfectGSampler<Huber, MeasureNormalizer<Huber>>>::restore(&seal(
            tag::SHARDED_SAMPLER,
            &w.into_bytes()
        )),
        Err(CodecError::InvalidValue { .. })
    ));

    // A shard count big enough to make the k x k scatter matrix explode
    // must be rejected before any shard is even decoded.
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::SHARDED_SAMPLER);
    w.put_u8(0);
    w.put_u8(0); // backpressure: block
    w.put_u64(4_096); // parallel cutoff
    w.put_u64(32 * 1024); // chunk length
    w.put_u64(0);
    w.put_u64(0);
    Xoshiro256::seed_from_u64(11).encode_into(&mut w);
    w.put_u64(1 << 20); // shard count
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&vec![0u8; 1 << 20]); // one byte per claimed shard
    assert!(matches!(
        ShardedSampler::<TrulyPerfectLpSampler>::restore(&seal(tag::SHARDED_SAMPLER, &bytes)),
        Err(CodecError::InvalidValue { .. })
    ));
}

/// Decode hardening, part 7: the window-norm estimator's exponent must
/// agree with its factory and checkpoints, and F0 state must stay inside
/// its declared universe — the remaining configuration-smuggling seams.
#[test]
fn estimator_exponent_and_f0_universe_smuggling_rejected() {
    use tps_streams::codec::{seal, tag, SnapshotWriter};
    use tps_streams::Snapshot as _;

    // Estimator claiming p = 2 with a factory built for p = 1.
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::SLIDING_LP_ESTIMATE);
    w.put_f64(2.0); // p
    w.put_f64(1.5); // safety factor
    w.put_tag(tag::SMOOTH_HISTOGRAM);
    w.put_u64(100); // window
    w.put_f64(0.1); // beta
    w.put_u64(0); // time
    w.put_tag(tag::LP_FACTORY);
    w.put_f64(1.0); // factory p — disagrees
    w.put_u64(2);
    w.put_u64(4);
    Xoshiro256::seed_from_u64(13).encode_into(&mut w);
    w.put_u64(0); // checkpoints
    assert!(matches!(
        tps_window::SlidingWindowLpEstimate::restore(&seal(
            tag::SLIDING_LP_ESTIMATE,
            &w.into_bytes()
        )),
        Err(CodecError::InvalidValue { .. })
    ));

    // F0 snapshot whose first-distinct set holds an item outside the
    // declared universe: consumers sized to universe() would misbehave.
    let mut w = SnapshotWriter::new();
    w.put_tag(tag::F0_SAMPLER);
    w.put_u64(100); // universe
    w.put_u64(10); // threshold
    w.put_u8(0); // overflowed
    w.put_u64(1); // processed
    Xoshiro256::seed_from_u64(17).encode_into(&mut w);
    w.put_u64(1); // first-distinct count
    w.put_u64(10_000); // item outside [0, 100)
    w.put_u64(1); // count
    w.put_u64(0); // candidate repetitions
    assert!(matches!(
        TrulyPerfectF0Sampler::restore(&seal(tag::F0_SAMPLER, &w.into_bytes())),
        Err(CodecError::InvalidValue { .. })
    ));
}
