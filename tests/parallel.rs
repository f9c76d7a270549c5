//! Parallel-vs-sequential equivalence properties.
//!
//! The contract of the batch-parallel engine (`Session::attribute_batch`) is
//! that thread count is unobservable in results: for every backend, a batch
//! run at 1, 2 or 4 threads returns per-instance `Attribution`s bit-identical
//! to a sequential `attribute` loop over the same lineages — including
//! sessions with the d-tree cache on, and including instances interrupted by
//! a per-instance step cap.

use banzhaf_repro::prelude::*;
use proptest::prelude::*;

/// Strategy generating small random positive DNFs (as clause lists) so that
/// a whole batch stays cheap even times three backends times three thread
/// counts.
fn small_dnf() -> impl Strategy<Value = Dnf> {
    proptest::collection::vec(proptest::collection::vec(0u32..8, 1..=3), 1..=8).prop_map(
        |clauses| {
            Dnf::from_clauses(
                clauses.into_iter().map(|c| c.into_iter().map(Var).collect::<Vec<_>>()),
            )
        },
    )
}

/// A canonical, order-independent rendering of an attribution's scores.
///
/// `Score` carries exact naturals, certified intervals or `f64` estimates;
/// the Debug rendering of each is injective (f64 uses the shortest
/// round-trip form), so equal strings mean bit-identical scores.
fn score_fingerprint(lineage: &Dnf, attribution: &Attribution) -> Vec<String> {
    lineage
        .universe()
        .iter()
        .map(|x| format!("{x}={:?}", attribution.value(x).expect("universe is scored")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every backend returns bit-identical attributions at thread counts
    /// 1/2/4, with the session cache both on and off.
    #[test]
    fn batch_attribution_is_thread_count_invariant(
        phis in proptest::collection::vec(small_dnf(), 1..=6),
        cache in any::<bool>(),
    ) {
        for algorithm in [Algorithm::ExaBan, Algorithm::AdaBan, Algorithm::MonteCarlo] {
            let config = EngineConfig::new(algorithm).with_cache_config(CacheConfig::new().with_enabled(cache)).with_seed(7);
            let mut sequential = Engine::new(config.clone()).session();
            let expected: Vec<Attribution> =
                phis.iter().map(|phi| sequential.attribute(phi).unwrap()).collect();
            for threads in [1usize, 2, 4] {
                let mut session = Engine::new(config.clone().with_threads(threads)).session();
                let refs: Vec<&Dnf> = phis.iter().collect();
                let got = session.attribute_batch(&refs, BatchOptions::default());
                prop_assert_eq!(got.len(), expected.len());
                for ((phi, want), have) in phis.iter().zip(&expected).zip(&got) {
                    let have = have.as_ref().unwrap();
                    prop_assert_eq!(
                        score_fingerprint(phi, want),
                        score_fingerprint(phi, have),
                        "{} at {} threads (cache={})",
                        algorithm,
                        threads,
                        cache
                    );
                    prop_assert_eq!(&want.model_count, &have.model_count);
                    prop_assert_eq!(want.stats.cache_hit, have.stats.cache_hit);
                }
                prop_assert_eq!(session.stats().cache_hits, sequential.stats().cache_hits);
            }
        }
    }

    /// Under a per-instance step cap, the Ok/Interrupted pattern and the
    /// completed attributions match the sequential loop at every thread
    /// count (cached sessions included).
    #[test]
    fn interrupted_batches_match_the_sequential_loop(
        phis in proptest::collection::vec(small_dnf(), 2..=6),
        cap in 1u64..40,
        cache in any::<bool>(),
    ) {
        let mut config = EngineConfig::new(Algorithm::ExaBan).with_cache_config(CacheConfig::new().with_enabled(cache));
        config.max_steps = Some(cap);
        let mut sequential = Engine::new(config.clone()).session();
        let expected: Vec<Result<Attribution, Interrupted>> =
            phis.iter().map(|phi| sequential.attribute(phi)).collect();
        for threads in [1usize, 2, 4] {
            let mut session = Engine::new(config.clone().with_threads(threads)).session();
            let refs: Vec<&Dnf> = phis.iter().collect();
            let got = session.attribute_batch(&refs, BatchOptions::default());
            for ((phi, want), have) in phis.iter().zip(&expected).zip(&got) {
                match (want, have) {
                    (Ok(want), Ok(have)) => {
                        prop_assert_eq!(
                            score_fingerprint(phi, want),
                            score_fingerprint(phi, have),
                            "threads={}",
                            threads
                        );
                    }
                    (Err(_), Err(_)) => {}
                    (want, have) => prop_assert!(
                        false,
                        "outcome diverged at {} threads: sequential={:?} batch={:?}",
                        threads,
                        want.is_ok(),
                        have.is_ok()
                    ),
                }
            }
        }
    }
}

/// A shared batch budget interrupts cooperatively across workers: finished
/// instances keep results, starved batches report `Interrupted` everywhere,
/// and the call always joins its workers.
#[test]
fn shared_budget_interrupts_across_workers() {
    let phis: Vec<Dnf> = (0..6u32)
        .map(|s| {
            let o = s * 10;
            Dnf::from_clauses(vec![
                vec![Var(o), Var(o + 1)],
                vec![Var(o + 1), Var(o + 2)],
                vec![Var(o + 2), Var(o + 3)],
                vec![Var(o + 3), Var(o)],
            ])
        })
        .collect();
    let refs: Vec<&Dnf> = phis.iter().collect();
    let config = EngineConfig::new(Algorithm::ExaBan)
        .with_cache_config(CacheConfig::disabled())
        .with_threads(4);
    // One shared step: nothing finishes.
    let starved = Engine::new(config.clone())
        .session()
        .attribute_batch(&refs, BatchOptions::new().with_shared_budget(&Budget::with_max_steps(1)));
    assert!(starved.iter().all(Result::is_err));
    // A generous shared budget completes everything, and the per-fact scores
    // match the unbudgeted sequential loop.
    let generous = Engine::new(config.clone()).session().attribute_batch(
        &refs,
        BatchOptions::new().with_shared_budget(&Budget::with_max_steps(1_000_000)),
    );
    let mut sequential = Engine::new(config).session();
    for (phi, got) in phis.iter().zip(generous) {
        let got = got.expect("generous budget");
        let want = sequential.attribute(phi).expect("unbounded");
        assert_eq!(want.exact_values().unwrap(), got.exact_values().unwrap());
    }
}

/// An aggregate batch with repeats: four weighted-isomorphic SUM lineages
/// per shape, plus a COUNT twin of the first shape's skeleton.
fn contested_aggregate_batch() -> Vec<WeightedDnf> {
    let mut lineages = Vec::new();
    for shape in 0..2u32 {
        for rep in 0..4u32 {
            let o = shape * 40 + rep * 10;
            lineages.push(WeightedDnf::from_weighted_clauses(
                AggregateKind::Sum,
                vec![
                    (vec![Var(o), Var(o + 1)], Rational::from(3i64 + i64::from(shape))),
                    (vec![Var(o + 1), Var(o + 2)], Rational::from(7i64)),
                    (vec![Var(o + 2), Var(o + 3)], Rational::from(3i64 + i64::from(shape))),
                ],
            ));
        }
    }
    lineages.push(WeightedDnf::from_weighted_clauses(
        AggregateKind::Count,
        vec![
            (vec![Var(100), Var(101)], Rational::one()),
            (vec![Var(101), Var(102)], Rational::one()),
            (vec![Var(102), Var(103)], Rational::one()),
        ],
    ));
    lineages
}

/// Aggregate batches fan their compiles across the pool like Boolean ones
/// (uncached, whatever the cache setting): per-fact rationals and aggregate
/// totals are bit-identical at 1, 2 and 4 threads, cache on and off.
#[test]
fn contested_aggregate_batches_are_thread_count_invariant() {
    let lineages = contested_aggregate_batch();
    let refs: Vec<&WeightedDnf> = lineages.iter().collect();
    for cache in [true, false] {
        let config = EngineConfig::new(Algorithm::ExaBan)
            .with_cache_config(CacheConfig::new().with_enabled(cache))
            .with_seed(7);
        let mut sequential = Engine::new(config.clone()).session();
        let expected: Vec<Attribution> =
            lineages.iter().map(|l| sequential.attribute(l).expect("no budget is set")).collect();
        for threads in [1usize, 2, 4] {
            let mut session = Engine::new(config.clone().with_threads(threads)).session();
            let got = session.attribute_batch(&refs, BatchOptions::default());
            assert_eq!(got.len(), expected.len());
            for ((lineage, want), have) in lineages.iter().zip(&expected).zip(&got) {
                let have = have.as_ref().expect("no budget is set");
                assert_eq!(
                    score_fingerprint(lineage.dnf(), want),
                    score_fingerprint(lineage.dnf(), have),
                    "cache={cache} threads={threads}"
                );
                assert_eq!(
                    want.aggregate_total, have.aggregate_total,
                    "cache={cache} threads={threads}"
                );
                assert_eq!(want.aggregate, have.aggregate);
            }
        }
    }
}
