//! Persistence integration tests: warm-start snapshots round trip through a
//! fresh engine bit-identically, snapshots larger than the cache load
//! truncated, and corrupted snapshots are rejected loudly and degrade to a
//! cold start.

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
        // Read-once lineages are answered in closed form and never enter
        // the cache.
        let cached: Vec<bool> = phis.iter().map(|phi| exaban_read_once(phi).is_none()).collect();
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
}

/// The 4-path `{o, o+1} ∨ {o+1, o+2} ∨ {o+2, o+3}`: connected with no common
/// variable, so it needs a Shannon step and enters the cache (a 3-path is
/// read-once and would be answered in closed form).
fn path_lineage(o: u32) -> Dnf {
    Dnf::from_clauses((o..o + 3).map(|i| vec![Var(i), Var(i + 1)]))
}

/// Writes a good snapshot of a small warmed engine to `path` and returns the
/// reference attribution for later bit-identity checks.
fn write_good_snapshot(path: &std::path::Path) -> Attribution {
    let engine = Engine::new(EngineConfig::default());
    let phi = path_lineage(0);
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
    let phi = path_lineage(0);
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

/// The bytes of one exact value record: the variable, score tag 0 and a
/// one-limb natural.
fn exact_record(v: Var, value: u64) -> Vec<u8> {
    let mut record = v.0.to_le_bytes().to_vec();
    record.push(0);
    record.extend_from_slice(&1u32.to_le_bytes());
    record.extend_from_slice(&value.to_le_bytes());
    record
}

#[test]
fn value_records_out_of_order_are_corrupt_and_degrade_to_cold() {
    let scratch = Scratch::new("value-order");
    let expected = write_good_snapshot(&scratch.path);
    let mut bytes = std::fs::read(&scratch.path).unwrap();
    // The 4-path compiles over its own variables `0..4`, so the entry stores
    // the values of `Var(0)` and `Var(1)` back to back. Swap the two records
    // and re-forge the checksum, so only the order check can reject the file.
    let value = |v: Var| expected.value(v).and_then(Score::exact).unwrap().to_u64().unwrap();
    let (first, second) =
        (exact_record(Var(0), value(Var(0))), exact_record(Var(1), value(Var(1))));
    let pair = [first.as_slice(), &second].concat();
    let at: Vec<usize> =
        (0..bytes.len() - pair.len()).filter(|&i| bytes[i..i + pair.len()] == pair[..]).collect();
    assert_eq!(at.len(), 1, "the pair of records occurs once");
    bytes[at[0]..at[0] + pair.len()].copy_from_slice(&[second.as_slice(), &first].concat());
    let checksum = fnv1a(&bytes[8..bytes.len() - 8]);
    let end = bytes.len() - 8;
    bytes[end..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&scratch.path, &bytes).unwrap();
    let probe = Engine::new(EngineConfig::default());
    let err = probe.shared_cache().load(&scratch.path).expect_err("swapped records");
    assert!(
        matches!(err, SnapshotError::Corrupt { what: "strictly ascending value variables", .. }),
        "got {err}"
    );
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
fn snapshots_larger_than_the_cache_load_truncated() {
    // Chains of 3..=6 clauses: four shapes, none isomorphic to another and
    // none answered in closed form (each needs a Shannon step), so the
    // snapshot holds four entries.
    let scratch = Scratch::new("truncate");
    let phis: Vec<Dnf> = (3..=6u32)
        .map(|len| Dnf::from_clauses((0..len).map(|i| vec![Var(i), Var(i + 1)])))
        .collect();
    let mut reference =
        Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled())).session();
    let expected: Vec<Attribution> =
        phis.iter().map(|phi| reference.attribute(phi).unwrap()).collect();
    let full = Engine::new(EngineConfig::default());
    let mut session = full.session();
    for phi in &phis {
        session.attribute(phi).unwrap();
    }
    assert_eq!(full.save_cache(&scratch.path).unwrap(), phis.len());

    // A cache of two admits the first two entries of the file (insertion
    // order) and drops the rest at load: nothing is evicted.
    let capacity = 2;
    let small = Engine::new(EngineConfig::default().with_cache_config(
        CacheConfig::new().with_capacity(capacity).with_warm_start(&scratch.path),
    ));
    let stats = small.stats().cache;
    assert_eq!(stats.snapshot_loads, 1);
    assert_eq!(stats.snapshot_entries, capacity as u64);
    assert_eq!((stats.entries, stats.capacity), (capacity, capacity));
    assert_eq!(stats.evictions, 0);
    let mut warm = small.session();
    for (i, (phi, want)) in phis.iter().zip(&expected).enumerate() {
        let have = warm.attribute(phi).unwrap();
        let kept = i < capacity;
        assert_eq!(have.stats.cache_hit, kept, "lineage {i}");
        assert_eq!(have.stats.compile_steps == 0, kept, "a dropped shape compiles");
        assert_eq!(want.exact_values().unwrap(), have.exact_values().unwrap());
        assert_eq!(want.model_count, have.model_count);
    }
}

#[test]
fn service_reports_snapshot_counters() {
    use banzhaf_repro::serve::{
        block_on, join_all, AttributionService, RequestOptions, ServeConfig,
    };
    let scratch = Scratch::new("service");
    write_good_snapshot(&scratch.path);
    let service = AttributionService::start(
        ServeConfig::new(
            EngineConfig::default()
                .with_cache_config(CacheConfig::new().with_warm_start(&scratch.path)),
        )
        .with_workers(2),
    );
    let phi = path_lineage(5);
    let tickets: Vec<_> =
        (0..2).map(|_| service.submit(phi.clone(), RequestOptions::default()).unwrap()).collect();
    for outcome in block_on(join_all(tickets)) {
        outcome.expect("unbounded budget");
    }
    let snapshot = service.engine_stats();
    assert_eq!(snapshot.cache.snapshot_loads, 1);
    assert!(snapshot.cache.snapshot_entries > 0);
    assert_eq!(snapshot.cache.snapshot_rejects, 0);
    // The isomorph of the snapshotted shape is served from the snapshot.
    assert!(snapshot.cache.hits >= 1);
}
