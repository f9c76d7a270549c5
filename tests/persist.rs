//! Persistence and sharding integration tests: warm-start snapshots round
//! trip through a fresh engine bit-identically, corrupted snapshots are
//! rejected loudly and degrade to a cold start, and sharded runs match
//! single-shard runs bit for bit.

use banzhaf_repro::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

/// Strategy generating small random positive DNFs (same shape family as the
/// engine tests) so exact attribution stays cheap.
fn small_dnf() -> impl Strategy<Value = Dnf> {
    proptest::collection::vec(proptest::collection::vec(0u32..8, 1..=3), 1..=8).prop_map(
        |clauses| {
            Dnf::from_clauses(
                clauses.into_iter().map(|c| c.into_iter().map(Var).collect::<Vec<_>>()),
            )
        },
    )
}

/// A per-test scratch file inside a unique temp directory, removed on drop.
struct Scratch {
    dir: PathBuf,
    path: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "banzhaf-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cache.bzc");
        Scratch { dir, path }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The FNV-1a the snapshot format checksums with, reimplemented here so the
/// corruption tests can forge a *checksum-valid* file with a bad version.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Save → load in a fresh engine: the replayed stream is served entirely
    /// from the snapshot (identical hits), values transfer through the
    /// persisted witnesses, and every result is bit-identical to a cold
    /// cache-less run.
    #[test]
    fn snapshot_round_trips_bit_identically(phis in proptest::collection::vec(small_dnf(), 1..=6)) {
        let scratch = Scratch::new("roundtrip");
        // Cold cache-less reference.
        let mut reference =
            Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()))
                .session();
        let expected: Vec<Attribution> =
            phis.iter().map(|phi| reference.attribute(phi).unwrap()).collect();
        // First engine compiles and snapshots.
        let first = Engine::new(EngineConfig::default());
        let mut session = first.session();
        let warm_reference: Vec<Attribution> =
            phis.iter().map(|phi| session.attribute(phi).unwrap()).collect();
        let written = first.save_cache(&scratch.path).expect("snapshot written");
        // Lineages whose clauses share no variable are answered in closed
        // form and never enter the cache.
        let cached: Vec<bool> = phis.iter().map(|phi| exaban_closed_form(phi).is_none()).collect();
        prop_assert_eq!(written > 0, cached.contains(&true));
        // Fresh engine loads the snapshot: every shape already compiled by
        // the first engine must hit, with values bit-identical to both the
        // first run and the cache-less reference.
        let second = Engine::new(
            EngineConfig::default()
                .with_cache_config(CacheConfig::new().with_warm_start(&scratch.path)),
        );
        let stats = second.stats().cache;
        prop_assert_eq!(stats.snapshot_loads, 1);
        prop_assert_eq!(stats.snapshot_rejects, 0);
        prop_assert_eq!(stats.entries, written);
        let mut warm = second.session();
        for (((phi, want), first_run), &cached) in
            phis.iter().zip(&expected).zip(&warm_reference).zip(&cached)
        {
            let have = warm.attribute(phi).unwrap();
            prop_assert_eq!(
                have.stats.cache_hit,
                cached,
                "replayed shape must be served from the snapshot"
            );
            prop_assert_eq!(have.stats.compile_steps, 0);
            prop_assert_eq!(want.exact_values().unwrap(), have.exact_values().unwrap());
            prop_assert_eq!(&want.model_count, &have.model_count);
            prop_assert_eq!(
                first_run.exact_values().unwrap(),
                have.exact_values().unwrap()
            );
        }
        // The warm session scored exactly one hit per cached request.
        let hits = cached.iter().filter(|&&c| c).count() as u64;
        prop_assert_eq!(warm.stats().cache_hits, hits);
    }

    /// Sharded (N >= 2) and single-shard runs are bit-identical at thread
    /// counts 1 and 2, and the per-shard stats sum to the aggregate.
    #[test]
    fn sharded_runs_match_single_shard_bit_for_bit(
        phis in proptest::collection::vec(small_dnf(), 1..=6),
    ) {
        let refs: Vec<&Dnf> = phis.iter().collect();
        let mut single = Engine::new(EngineConfig::default()).session();
        let expected = single.attribute_batch(&refs, BatchOptions::default());
        for shards in [2usize, 3] {
            for threads in [1usize, 2] {
                let engine = Engine::new(
                    EngineConfig::default()
                        .with_cache_config(CacheConfig::new().with_shards(shards))
                        .with_threads(threads),
                );
                let mut session = engine.session();
                let got = session.attribute_batch(&refs, BatchOptions::default());
                for (want, have) in expected.iter().zip(&got) {
                    let (want, have) = (want.as_ref().unwrap(), have.as_ref().unwrap());
                    prop_assert_eq!(want.exact_values().unwrap(), have.exact_values().unwrap());
                    prop_assert_eq!(&want.model_count, &have.model_count);
                    prop_assert_eq!(want.stats.cache_hit, have.stats.cache_hit);
                    prop_assert_eq!(want.stats.compile_steps, have.stats.compile_steps);
                }
                let snapshot = engine.stats();
                prop_assert_eq!(snapshot.shards.len(), shards);
                let hits: u64 = snapshot.shards.iter().map(|s| s.hits).sum();
                let entries: usize = snapshot.shards.iter().map(|s| s.entries).sum();
                prop_assert_eq!(snapshot.cache.hits, hits);
                prop_assert_eq!(snapshot.cache.entries, entries);
                prop_assert_eq!(session.stats().cache_hits, single.stats().cache_hits);
            }
        }
    }
}

/// Writes a good snapshot of a small warmed engine to `path` and returns the
/// reference attribution for later bit-identity checks.
fn write_good_snapshot(path: &std::path::Path) -> Attribution {
    let engine = Engine::new(EngineConfig::default());
    let phi = Dnf::from_clauses(vec![vec![Var(0), Var(1)], vec![Var(1), Var(2)]]);
    let att = engine.session().attribute(&phi).unwrap();
    engine.save_cache(path).expect("snapshot written");
    att
}

/// A warm-start engine pointed at `path` must start *cold* (the snapshot is
/// rejected, counted, and never panics), yet still attribute correctly.
fn assert_degrades_to_cold(path: &std::path::Path, expected: &Attribution) {
    let engine = Engine::new(
        EngineConfig::default().with_cache_config(CacheConfig::new().with_warm_start(path)),
    );
    let stats = engine.stats().cache;
    assert_eq!(stats.snapshot_rejects, 1, "rejected snapshot must be counted");
    assert_eq!(stats.snapshot_loads, 0);
    assert_eq!(stats.entries, 0, "no partial load may be admitted");
    let phi = Dnf::from_clauses(vec![vec![Var(0), Var(1)], vec![Var(1), Var(2)]]);
    let att = engine.session().attribute(&phi).unwrap();
    assert!(!att.stats.cache_hit, "cold start recompiles");
    assert_eq!(att.exact_values().unwrap(), expected.exact_values().unwrap());
}

#[test]
fn truncated_snapshots_are_rejected_and_degrade_to_cold() {
    let scratch = Scratch::new("truncated");
    let expected = write_good_snapshot(&scratch.path);
    let bytes = std::fs::read(&scratch.path).unwrap();
    for len in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&scratch.path, &bytes[..len]).unwrap();
        assert_degrades_to_cold(&scratch.path, &expected);
    }
}

#[test]
fn bad_magic_is_a_typed_error_and_degrades_to_cold() {
    let scratch = Scratch::new("magic");
    let expected = write_good_snapshot(&scratch.path);
    let mut bytes = std::fs::read(&scratch.path).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&scratch.path, &bytes).unwrap();
    // The typed error is observable through the public cache API…
    let probe = Engine::new(EngineConfig::default());
    let err = probe.shared_cache().load(&scratch.path).expect_err("bad magic must be rejected");
    assert!(matches!(err, SnapshotError::BadMagic), "got {err}");
    // …and the warm-start path degrades to cold.
    assert_degrades_to_cold(&scratch.path, &expected);
}

#[test]
fn version_mismatch_is_a_typed_error_and_degrades_to_cold() {
    let scratch = Scratch::new("version");
    let expected = write_good_snapshot(&scratch.path);
    let mut bytes = std::fs::read(&scratch.path).unwrap();
    // Bump the version and re-forge the trailing checksum so *only* the
    // version check can reject the file.
    bytes[8] = 0xFE;
    let checksum = fnv1a(&bytes[8..bytes.len() - 8]);
    let at = bytes.len() - 8;
    bytes[at..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&scratch.path, &bytes).unwrap();
    let probe = Engine::new(EngineConfig::default());
    let err = probe.shared_cache().load(&scratch.path).expect_err("version must be rejected");
    assert!(matches!(err, SnapshotError::UnsupportedVersion(0xFE)), "got {err}");
    assert_degrades_to_cold(&scratch.path, &expected);
}

#[test]
fn version_1_snapshots_are_rejected_and_degrade_to_cold() {
    // Version 1 stored canonical keys from before decomposed keying; a
    // checksum-valid version-1 file must be refused, not half-reachable.
    let scratch = Scratch::new("version1");
    let expected = write_good_snapshot(&scratch.path);
    let mut bytes = std::fs::read(&scratch.path).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let checksum = fnv1a(&bytes[8..bytes.len() - 8]);
    let at = bytes.len() - 8;
    bytes[at..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&scratch.path, &bytes).unwrap();
    let probe = Engine::new(EngineConfig::default());
    let err = probe.shared_cache().load(&scratch.path).expect_err("version 1 must be rejected");
    assert!(matches!(err, SnapshotError::UnsupportedVersion(1)), "got {err}");
    assert_degrades_to_cold(&scratch.path, &expected);
}

#[test]
fn version_2_snapshots_are_rejected_and_degrade_to_cold() {
    // Version 2 stored cross-product cores under their search keys, which
    // renamed copies no longer key to; a checksum-valid version-2 file must
    // be refused, not half-reachable.
    let scratch = Scratch::new("version2");
    let expected = write_good_snapshot(&scratch.path);
    let mut bytes = std::fs::read(&scratch.path).unwrap();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    let checksum = fnv1a(&bytes[8..bytes.len() - 8]);
    let at = bytes.len() - 8;
    bytes[at..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&scratch.path, &bytes).unwrap();
    let probe = Engine::new(EngineConfig::default());
    let err = probe.shared_cache().load(&scratch.path).expect_err("version 2 must be rejected");
    assert!(matches!(err, SnapshotError::UnsupportedVersion(2)), "got {err}");
    assert_degrades_to_cold(&scratch.path, &expected);
}

#[test]
fn garbage_tails_and_bit_flips_are_rejected_and_degrade_to_cold() {
    let scratch = Scratch::new("garbage");
    let expected = write_good_snapshot(&scratch.path);
    let bytes = std::fs::read(&scratch.path).unwrap();
    // Garbage tail.
    let mut tailed = bytes.clone();
    tailed.extend_from_slice(b"not part of the snapshot");
    std::fs::write(&scratch.path, &tailed).unwrap();
    let probe = Engine::new(EngineConfig::default());
    let err = probe.shared_cache().load(&scratch.path).expect_err("garbage tail");
    assert!(matches!(err, SnapshotError::ChecksumMismatch), "got {err}");
    assert_degrades_to_cold(&scratch.path, &expected);
    // A flipped payload byte.
    let mut flipped = bytes;
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&scratch.path, &flipped).unwrap();
    assert_degrades_to_cold(&scratch.path, &expected);
    // Pure garbage that never was a snapshot.
    std::fs::write(&scratch.path, b"complete nonsense").unwrap();
    assert_degrades_to_cold(&scratch.path, &expected);
}

#[test]
fn snapshots_are_shard_count_independent() {
    // A snapshot written by a single-shard engine loads into a sharded one
    // (and vice versa): entries are re-routed by fingerprint at load time.
    let scratch = Scratch::new("shardmove");
    let phis: Vec<Dnf> = (0..4u32)
        .map(|o| {
            Dnf::from_clauses(vec![
                vec![Var(o * 10), Var(o * 10 + 1)],
                vec![Var(o * 10 + 1), Var(o * 10 + 2)],
                vec![Var(o * 10 + 2), Var(o * 10 + 3)],
            ])
        })
        .collect();
    let single = Engine::new(EngineConfig::default());
    let mut session = single.session();
    let expected: Vec<Attribution> = phis.iter().map(|p| session.attribute(p).unwrap()).collect();
    single.save_cache(&scratch.path).unwrap();

    let sharded = Engine::new(
        EngineConfig::default()
            .with_cache_config(CacheConfig::new().with_shards(3).with_warm_start(&scratch.path)),
    );
    assert_eq!(sharded.stats().cache.snapshot_loads, 1);
    let mut warm = sharded.session();
    for (phi, want) in phis.iter().zip(&expected) {
        let have = warm.attribute(phi).unwrap();
        assert!(have.stats.cache_hit);
        assert_eq!(want.exact_values().unwrap(), have.exact_values().unwrap());
        // The serving shard is reportable and stable.
        let shard = sharded.shard_of(phi);
        assert!(shard < 3);
        assert_eq!(shard, sharded.shard_of(phi));
    }
}

#[test]
fn service_reports_shards_and_snapshot_counters() {
    use banzhaf_repro::serve::{
        block_on, join_all, AttributionService, RequestOptions, ServeConfig,
    };
    let scratch = Scratch::new("service");
    write_good_snapshot(&scratch.path);
    let service =
        AttributionService::start(
            ServeConfig::new(EngineConfig::default().with_cache_config(
                CacheConfig::new().with_shards(2).with_warm_start(&scratch.path),
            ))
            .with_workers(2),
        );
    let phi = Dnf::from_clauses(vec![vec![Var(5), Var(6)], vec![Var(6), Var(7)]]);
    let shard = service.shard_of(&phi);
    assert!(shard < 2);
    let tickets: Vec<_> =
        (0..2).map(|_| service.submit(phi.clone(), RequestOptions::default()).unwrap()).collect();
    for outcome in block_on(join_all(tickets)) {
        outcome.expect("unbounded budget");
    }
    let snapshot = service.engine_stats();
    assert_eq!(snapshot.shards.len(), 2);
    assert_eq!(snapshot.cache.snapshot_loads, 1);
    assert!(snapshot.cache.snapshot_entries > 0);
    assert_eq!(snapshot.cache.snapshot_rejects, 0);
    // The isomorph of the snapshotted shape is served from the snapshot.
    assert!(snapshot.cache.hits >= 1);
}
