//! Engine-level integration tests: every `Attributor` implementation against
//! the ExaBan ground truth on random lineages, and the d-tree cache against
//! uncached runs.

use banzhaf_repro::prelude::*;
use proptest::prelude::*;

/// Strategy generating small random positive DNFs so that the exact ground
/// truth stays cheap to compute.
fn small_dnf() -> impl Strategy<Value = Dnf> {
    proptest::collection::vec(proptest::collection::vec(0u32..8, 1..=3), 1..=8).prop_map(
        |clauses| {
            Dnf::from_clauses(
                clauses.into_iter().map(|c| c.into_iter().map(Var).collect::<Vec<_>>()),
            )
        },
    )
}

/// Ground truth via the core two-pass algorithm on a compiled d-tree.
fn ground_truth(phi: &Dnf) -> BanzhafResult {
    let tree = DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
        .unwrap();
    exaban_all(&tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact backends agree with `exaban_all` on every value and on the model
    /// count; interval backends bracket every exact value.
    #[test]
    fn every_attributor_agrees_with_or_brackets_exaban(phi in small_dnf()) {
        let truth = ground_truth(&phi);
        for algorithm in [Algorithm::ExaBan, Algorithm::Sig22] {
            let attributor = EngineConfig::new(algorithm).attributor();
            let att = attributor.attribute(&phi, &Budget::unlimited()).unwrap();
            prop_assert_eq!(att.model_count.as_ref().unwrap(), &truth.model_count);
            let exact = att.exact_values().unwrap();
            for x in phi.universe().iter() {
                prop_assert_eq!(&exact[&x], truth.value(x).unwrap(), "{} {}", algorithm, x);
            }
        }
        for algorithm in [Algorithm::AdaBan, Algorithm::IchiBan] {
            let attributor = EngineConfig::new(algorithm).attributor();
            let att = attributor.attribute(&phi, &Budget::unlimited()).unwrap();
            for x in phi.universe().iter() {
                let Some(Score::Interval(interval)) = att.value(x) else {
                    prop_assert!(false, "{} must return an interval for {}", algorithm, x);
                    unreachable!();
                };
                let exact = truth.value(x).unwrap();
                prop_assert!(
                    &interval.lower <= exact && exact <= &interval.upper,
                    "{} {}: [{}, {}] must contain {}",
                    algorithm, x, interval.lower, interval.upper, exact
                );
            }
        }
    }

    /// The session's canonical-lineage d-tree cache returns exactly the same
    /// results as an uncached session, for exact and estimate backends alike.
    #[test]
    fn cached_sessions_match_uncached_sessions(phi in small_dnf()) {
        // Attribute the lineage and a renamed copy: the copy hits the cache.
        let shifted = Dnf::from_clauses(
            phi.clauses().iter().map(|c| c.iter().map(|v| Var(v.0 + 100)).collect::<Vec<_>>()),
        );
        for algorithm in [Algorithm::ExaBan, Algorithm::Sig22] {
            let config = EngineConfig::new(algorithm);
            let mut cached = Engine::new(config.clone().with_cache_config(CacheConfig::new())).session();
            let mut uncached = Engine::new(config.with_cache_config(CacheConfig::disabled())).session();
            for lineage in [&phi, &shifted] {
                let a = cached.attribute(lineage).unwrap();
                let b = uncached.attribute(lineage).unwrap();
                prop_assert_eq!(a.exact_values().unwrap(), b.exact_values().unwrap());
                prop_assert_eq!(a.model_count, b.model_count);
            }
            prop_assert_eq!(cached.stats().cache_hits, 1);
            prop_assert!(cached.stats().compile_steps <= uncached.stats().compile_steps);
        }
    }
}

/// Applies a random variable bijection (onto sparse, shuffled target ids) and
/// a random clause permutation to `phi`, returning the transformed lineage
/// and the bijection as `original -> renamed`.
fn random_isomorph(phi: &Dnf, seed: u64) -> (Dnf, std::collections::HashMap<Var, Var>) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffle = |items: &mut Vec<u32>| {
        for i in (1..items.len()).rev() {
            let j = rng.gen_range(0..=i);
            items.swap(i, j);
        }
    };
    let originals: Vec<Var> = phi.universe().iter().collect();
    // Arbitrary targets: a shuffled, strided, offset id block — nothing the
    // first-occurrence walk could align with the original labels.
    let mut targets: Vec<u32> = (0..originals.len() as u32).collect();
    shuffle(&mut targets);
    let offset = rng.gen_range(0u32..40);
    let stride = rng.gen_range(1u32..4);
    let bijection: std::collections::HashMap<Var, Var> =
        originals.iter().zip(&targets).map(|(&v, &t)| (v, Var(offset + t * stride))).collect();
    let mut clauses: Vec<Vec<Var>> =
        phi.clauses().iter().map(|c| c.iter().map(|v| bijection[&v]).collect()).collect();
    // Permute the clause order too (the Dnf constructor re-sorts, but the
    // sort order itself depends on the renamed labels — exactly the
    // sensitivity that broke the old key).
    for i in (1..clauses.len()).rev() {
        let j = rng.gen_range(0..=i);
        clauses.swap(i, j);
    }
    (Dnf::from_clauses(clauses), bijection)
}

/// The dense first-occurrence presentation the engine's cache compares
/// before canonicalizing: variables renamed to `0..n` in order of first
/// occurrence (clauses first, then the unused universe), each clause sorted,
/// then the clause list sorted.
fn first_occurrence_presentation(lineage: &Dnf) -> (usize, Vec<Vec<u32>>) {
    let mut ids: std::collections::HashMap<Var, u32> = std::collections::HashMap::new();
    let mut rename = |v: Var| -> u32 {
        let next = ids.len() as u32;
        *ids.entry(v).or_insert(next)
    };
    let mut clauses: Vec<Vec<u32>> =
        lineage.clauses().iter().map(|c| c.iter().map(&mut rename).collect()).collect();
    for v in lineage.universe().iter() {
        rename(v);
    }
    for c in &mut clauses {
        c.sort_unstable();
    }
    clauses.sort_unstable();
    (ids.len(), clauses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole's acceptance property: the canonical cache key is
    /// invariant under arbitrary variable bijections composed with clause
    /// permutations — the original and its random isomorph occupy **one**
    /// `SharedCache` entry, the second attribution scores a hit, and the
    /// values transfer through the bijection.
    #[test]
    fn isomorphic_lineages_occupy_one_cache_entry(phi in small_dnf(), seed in any::<u64>()) {
        let (renamed, bijection) = random_isomorph(&phi, seed);
        let engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let first = session.attribute(&phi).unwrap();
        let second = session.attribute(&renamed).unwrap();
        prop_assert!(!first.stats.cache_hit);
        prop_assert!(second.stats.cache_hit, "the isomorph must hit the first entry");
        let stats = engine.stats().cache;
        prop_assert_eq!(stats.insertions, 1, "one canonical shape, one entry");
        prop_assert_eq!(stats.hits, 1);
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.entries, 1);
        if first_occurrence_presentation(&phi) == first_occurrence_presentation(&renamed) {
            // The isomorph happens to share phi's dense presentation: the
            // lookup settles by presentation and never searches.
            prop_assert_eq!(stats.canon_searches, 0, "an equal presentation needs no search");
        } else {
            prop_assert!(stats.canon_steps > 0, "canonicalization cost must be observable");
        }
        // The cached values transfer through the bijection.
        prop_assert_eq!(&first.model_count, &second.model_count);
        for x in phi.universe().iter() {
            prop_assert_eq!(
                first.value(x).unwrap().exact(),
                second.value(bijection[&x]).unwrap().exact(),
                "{} -> {}", x, bijection[&x]
            );
        }
    }
}

#[test]
fn engine_explains_workload_answers_like_the_raw_pipeline() {
    // The engine front door must agree with the hand-wired pipeline on a
    // sample of workload lineages.
    let corpus = academic_like(&DatasetSpec::default());
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    let mut checked = 0;
    for instance in &corpus.instances {
        if instance.lineage.num_vars() == 0 || instance.lineage.num_vars() > 14 {
            continue;
        }
        let truth = ground_truth(&instance.lineage);
        let att = session.attribute(&instance.lineage).unwrap();
        assert_eq!(att.model_count.as_ref(), Some(&truth.model_count));
        for x in instance.lineage.universe().iter() {
            assert_eq!(att.value(x).unwrap().exact().as_ref(), truth.value(x));
        }
        checked += 1;
        if checked >= 25 {
            break;
        }
    }
    assert!(checked >= 10, "expected enough small instances to check, got {checked}");
}

#[test]
fn session_cache_pays_off_on_a_corpus_with_repeated_lineages() {
    // The acceptance check of the engine refactor: on a corpus whose answers
    // share isomorphic lineage, the cached session performs strictly fewer
    // compile steps than the uncached one.
    let repeated: Vec<Dnf> = (0..8u32)
        .map(|s| {
            let o = s * 16;
            Dnf::from_clauses(vec![
                vec![Var(o), Var(o + 1)],
                vec![Var(o + 1), Var(o + 2)],
                vec![Var(o + 2), Var(o + 3)],
                vec![Var(o + 3), Var(o + 4)],
                vec![Var(o + 4), Var(o)],
            ])
        })
        .collect();
    let mut cached =
        Engine::new(EngineConfig::default().with_cache_config(CacheConfig::new())).session();
    let mut uncached =
        Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled())).session();
    for lineage in &repeated {
        let a = cached.attribute(lineage).unwrap();
        let b = uncached.attribute(lineage).unwrap();
        assert_eq!(a.exact_values(), b.exact_values());
    }
    assert_eq!(cached.stats().cache_hits, 7);
    assert!(
        cached.stats().compile_steps < uncached.stats().compile_steps,
        "cache must save compile steps: {} vs {}",
        cached.stats().compile_steps,
        uncached.stats().compile_steps
    );
}

#[test]
fn engine_and_query_layer_compose_end_to_end() {
    // Examples 5–7 of the paper, through the front door only.
    let mut db = Database::new();
    db.add_relation("R", 3);
    db.add_relation("S", 3);
    db.add_relation("T", 2);
    let r = db.insert_endogenous("R", vec![1.into(), 2.into(), 3.into()]).unwrap();
    let s1 = db.insert_endogenous("S", vec![1.into(), 2.into(), 4.into()]).unwrap();
    db.insert_endogenous("S", vec![1.into(), 2.into(), 5.into()]).unwrap();
    let t = db.insert_endogenous("T", vec![1.into(), 6.into()]).unwrap();
    let query = parse_program("Q() :- R(X, Y, Z), S(X, Y, V), T(X, U).").unwrap();

    let engine = Engine::new(EngineConfig::default().with_shapley(true));
    let explained = engine.session().explain(&query, &db);
    assert_eq!(explained.answers.len(), 1);
    let attribution = explained.answers[0].attribution().expect("unlimited budget");
    assert_eq!(attribution.model_count.as_ref().unwrap().to_u64(), Some(3));
    let exact = attribution.exact_values().unwrap();
    assert_eq!(exact[&Var(r.0)].to_u64(), Some(3));
    assert_eq!(exact[&Var(s1.0)].to_u64(), Some(1));
    assert_eq!(exact[&Var(t.0)].to_u64(), Some(3));
    assert!(attribution.shapley.is_some());

    // The certified top-2 through the IchiBan backend.
    let mut topk_session = Engine::new(EngineConfig::new(Algorithm::IchiBan).certain()).session();
    let top2 = topk_session.top_k(&explained.answers[0].lineage, 2).unwrap();
    assert!(top2.certified);
    assert!(top2.order.contains(&Var(r.0)));
    assert!(top2.order.contains(&Var(t.0)));
}

/// The live-update schema shared by the incremental tests below: a unary
/// `R`, a binary `S`, and a join query over both.
fn live_db(initial: &[(bool, u8, u8)]) -> Database {
    let mut db = Database::new();
    db.add_relation("R", 1);
    db.add_relation("S", 2);
    db.add_relation("T", 1);
    for &(is_r, a, b) in initial {
        if is_r {
            db.insert_endogenous("R", vec![i64::from(a).into()]).unwrap();
        } else {
            db.insert_endogenous("S", vec![i64::from(a).into(), i64::from(b).into()]).unwrap();
        }
    }
    db
}

fn live_query() -> UnionQuery {
    parse_program("Q(X) :- R(X), S(X, Y).").unwrap()
}

/// Strategy generating initial facts as packed codes; bit 0 picks the
/// relation, bits 1.. pick the (small-domain) attribute values.
fn initial_facts() -> impl Strategy<Value = Vec<(bool, u8, u8)>> {
    proptest::collection::vec(0u32..32, 1..=9).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| (c & 1 == 1, ((c >> 1) & 3) as u8, ((c >> 3) & 3) as u8))
            .collect()
    })
}

/// Strategy generating an insert/delete stream as packed codes; bit 0 is
/// insert-vs-delete, bit 1 picks the relation.
fn update_stream() -> impl Strategy<Value = Vec<(bool, bool, u8, u8)>> {
    proptest::collection::vec(0u32..64, 1..=7).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| (c & 1 == 1, c & 2 == 2, ((c >> 2) & 3) as u8, ((c >> 4) & 3) as u8))
            .collect()
    })
}

/// Asserts that the live session's maintained snapshot for `name` is
/// bit-identical to a cold, cacheless, single-threaded re-evaluation of the
/// same query over the live session's current database.
fn assert_matches_cold(live: &LiveSession, name: &str, query: &UnionQuery) {
    let cold_engine = Engine::new(
        EngineConfig::new(Algorithm::ExaBan)
            .with_cache_config(CacheConfig::disabled())
            .with_threads(1),
    );
    let cold = cold_engine.session().explain(query, live.db());
    let snapshot = live.attribution(name).expect("query is registered");
    assert_eq!(snapshot.answers.len(), cold.answers.len());
    for (incremental, cold) in snapshot.answers.iter().zip(&cold.answers) {
        assert_eq!(&incremental.tuple, &cold.tuple);
        let a = incremental.attribution().expect("unlimited budget");
        let b = cold.attribution().expect("unlimited budget");
        assert_eq!(&a.model_count, &b.model_count);
        assert_eq!(a.exact_values().unwrap(), b.exact_values().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole's acceptance property: a random insert/delete stream
    /// applied incrementally through [`LiveSession::apply_update`] is
    /// bit-identical to cold re-evaluating the registered query after every
    /// step — across cache on/off and 1/2 worker threads.
    #[test]
    fn incremental_updates_match_cold_reevaluation_after_every_step(
        initial in initial_facts(),
        stream in update_stream(),
    ) {
        let db = live_db(&initial);
        let query = live_query();
        for (cache, threads) in [(true, 1), (true, 2), (false, 1), (false, 2)] {
            let engine = Engine::new(
                EngineConfig::new(Algorithm::ExaBan).with_cache_config(CacheConfig::new().with_enabled(cache)).with_threads(threads),
            );
            let mut live = engine.live_session(db.clone());
            live.register("q", query.clone());
            assert_matches_cold(&live, "q", &query);
            for &(is_insert, is_r, a, b) in &stream {
                let values = if is_r {
                    vec![i64::from(a).into()]
                } else {
                    vec![i64::from(a).into(), i64::from(b).into()]
                };
                let relation = if is_r { "R" } else { "S" };
                let update = if is_insert {
                    Update::insert(relation, values)
                } else {
                    Update::delete(relation, values)
                };
                match live.apply_update(update) {
                    // A delete of an absent tuple is rejected without
                    // changing the database; anything else must hold the
                    // bit-identity invariant right away.
                    Err(_) => prop_assert!(!is_insert),
                    Ok(report) => {
                        // touched + untouched accounts for every answer:
                        // the ones still live after the update, plus the
                        // ones the update removed.
                        let removed = report
                            .touched
                            .iter()
                            .filter(|t| t.change == AnswerChange::Removed)
                            .count();
                        let after = live.attribution("q").expect("registered").answers.len();
                        prop_assert_eq!(
                            report.touched.len() + usize::try_from(report.untouched).unwrap(),
                            after + removed,
                        );
                    }
                }
                assert_matches_cold(&live, "q", &query);
            }
        }
    }
}

#[test]
fn update_touching_no_registered_answer_compiles_nothing() {
    // `T` exists in the schema but no registered query mentions it, and
    // `R(3)` joins with no `S(3, _)`: neither update can touch a registered
    // answer, so the delta path must not pay a single compile step.
    let mut db = live_db(&[(true, 1, 0), (false, 1, 2)]);
    db.insert_endogenous("T", vec![9.into()]).unwrap();
    let engine = Engine::new(EngineConfig::default());
    let mut live = engine.live_session(db);
    let registered = live.register("q", live_query());
    assert_eq!(registered.answers.len(), 1);

    for update in [
        Update::insert("T", vec![7.into()]),
        Update::insert("R", vec![3.into()]),
        Update::delete("T", vec![9.into()]),
    ] {
        let report = live.apply_update(update).unwrap();
        assert!(report.touched.is_empty(), "no registered answer mentions the fact");
        assert_eq!(report.compile_steps, 0, "untouched answers must not recompile");
        assert_eq!(report.untouched, 1);
    }
    // The maintained snapshot never moved.
    let snapshot = live.attribution("q").unwrap();
    assert_eq!(snapshot.answers.len(), 1);
    assert_eq!(snapshot.answers[0].tuple, vec![Value::from(1)]);
    assert_eq!(live.stats().update_compile_steps, 0);
}

/// Strategy generating a random small aggregate database as packed codes:
/// bits 0-1 pick the supplier, bits 2-3 the part, bits 4-6 the value, bit 7
/// endogenous-vs-exogenous. Sizes keep every per-answer lineage
/// brute-forceable (2^n worlds over n <= 8 variables).
fn aggregate_rows() -> impl Strategy<Value = Vec<(u8, u8, i8, bool)>> {
    proptest::collection::vec(0u32..256, 1..=7).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| {
                ((c & 3) as u8, ((c >> 2) & 3) as u8, (1 + ((c >> 4) & 7)) as i8, c & 128 == 128)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The aggregate generalization's acceptance property: for SUM and COUNT
    /// queries over random small databases, every per-fact value the engine
    /// returns equals the brute-force aggregate Banzhaf value (the signed
    /// sum of `val(Y + f) - val(Y)` over all `2^n` subsets of the other
    /// facts) — with the cache on and off, at 1 and 2 threads.
    #[test]
    fn aggregate_attributions_agree_with_brute_force(
        rows in aggregate_rows(),
        count in any::<bool>(),
        cache in any::<bool>(),
        two_threads in any::<bool>(),
    ) {
        let mut db = Database::new();
        db.add_relation("Supp", 1);
        db.add_relation("Item", 3);
        let mut seen_suppliers = std::collections::HashSet::new();
        let mut seen_items = std::collections::HashSet::new();
        for &(s, p, v, exo) in &rows {
            if seen_suppliers.insert(s) {
                db.insert_endogenous("Supp", vec![i64::from(s).into()]).unwrap();
            }
            if seen_items.insert((s, p)) {
                let row = vec![i64::from(s).into(), i64::from(p).into(), i64::from(v).into()];
                if exo {
                    db.insert_exogenous("Item", row).unwrap();
                } else {
                    db.insert_endogenous("Item", row).unwrap();
                }
            }
        }
        let program = if count {
            "Q(S, COUNT(*)) :- Supp(S), Item(S, P, V)."
        } else {
            "Q(S, SUM(V)) :- Supp(S), Item(S, P, V)."
        };
        let query = parse_program(program).unwrap();
        let result = evaluate_aggregate(&query, &db).unwrap();
        let config = EngineConfig::new(Algorithm::ExaBan)
            .with_cache_config(CacheConfig::new().with_enabled(cache))
            .with_threads(if two_threads { 2 } else { 1 });
        let mut session = Engine::new(config).session();
        for answer in result.answers() {
            let attribution = session.attribute_aggregate(&answer.lineage).unwrap();
            prop_assert_eq!(
                attribution.aggregate,
                Some(if count { AggregateKind::Count } else { AggregateKind::Sum })
            );
            for x in answer.lineage.universe().iter() {
                let Some(Score::Rational(got)) = attribution.value(x) else {
                    panic!("aggregate scores are exact rationals");
                };
                prop_assert_eq!(
                    got,
                    &answer.lineage.brute_force_aggregate_banzhaf(x),
                    "cache={} threads={} var={}", cache, two_threads, x
                );
            }
        }
    }
}

/// Weighted cache keying: lineages sharing one Boolean skeleton but
/// differing in clause weights (with no skeleton automorphism carrying one
/// weight placement to the other) or in aggregate kind occupy **separate**
/// cache entries, while a genuine weighted isomorph (renamed variables,
/// weights carried along) still hits.
#[test]
fn weighted_lineages_key_apart_by_weights_and_kind() {
    let path = |offset: u32, weights: [i64; 3], kind| {
        WeightedDnf::from_weighted_clauses(
            kind,
            vec![
                (vec![Var(offset), Var(offset + 1)], Rational::from(weights[0])),
                (vec![Var(offset + 1), Var(offset + 2)], Rational::from(weights[1])),
                (vec![Var(offset + 2), Var(offset + 3)], Rational::from(weights[2])),
            ],
        )
    };
    // Four pairwise non-isomorphic variants of the same 4-path skeleton: the
    // odd weight in the middle vs at the end (the path's only non-trivial
    // automorphism is the reflection, which fixes the middle clause), a
    // COUNT twin, and a MIN twin of the first weight placement.
    let middle = path(0, [2, 9, 2], AggregateKind::Sum);
    let end = path(0, [9, 2, 2], AggregateKind::Sum);
    let count = path(0, [1, 1, 1], AggregateKind::Count);
    let min = path(0, [2, 9, 2], AggregateKind::Min);

    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    for lineage in [&middle, &end, &count, &min] {
        let attribution = session.attribute_aggregate(lineage).unwrap();
        assert!(!attribution.stats.cache_hit, "{:?} must get its own entry", lineage.kind());
    }
    // The Boolean skeleton itself keys apart from every weighted entry.
    let skeleton = middle.dnf().clone();
    assert!(!session.attribute(&skeleton).unwrap().stats.cache_hit);
    let stats = engine.stats().cache;
    assert_eq!(stats.insertions, 5, "five distinct entries, no sharing");
    assert_eq!(stats.hits, 0);
    // A genuine weighted isomorph — variables renamed, weights carried
    // along — is served from `middle`'s entry.
    let renamed = path(20, [2, 9, 2], AggregateKind::Sum);
    assert!(session.attribute_aggregate(&renamed).unwrap().stats.cache_hit);
    assert_eq!(engine.stats().cache.entries, 5);
    assert_eq!(engine.stats().cache.hits, 1);
}

/// An order-independent rendering of everything an attribution reports per
/// fact plus its model count and aggregate total; the Debug form of each
/// score is injective, so equal renderings mean bit-identical results.
fn rendering(universe: &VarSet, attribution: &Attribution) -> Vec<String> {
    let mut out: Vec<String> = universe
        .iter()
        .map(|x| {
            let shapley = attribution.shapley.as_ref().map(|s| format!("{:?}", s[&x]));
            format!(
                "{x}={:?} shapley={shapley:?}",
                attribution.value(x).expect("universe is scored")
            )
        })
        .collect();
    out.push(format!("models={:?}", attribution.model_count));
    out.push(format!("total={:?}", attribution.aggregate_total));
    out
}

/// A lineage whose canonical search is not trivial (a 5-cycle with a pendant
/// clause), shifted by a label offset. Shifting every label preserves the
/// label order, so every offset has the same dense presentation.
fn shifted_lineage(offset: u32) -> Dnf {
    let v = |i: u32| Var(offset + i);
    Dnf::from_clauses(vec![
        vec![v(0), v(1)],
        vec![v(1), v(2)],
        vec![v(2), v(3)],
        vec![v(3), v(4)],
        vec![v(4), v(0)],
        vec![v(2), v(5), v(6)],
    ])
}

#[test]
fn repeated_presentation_hits_without_a_search_and_matches_cache_off() {
    let config = EngineConfig::default().with_shapley(true);
    let engine = Engine::new(config.clone());
    let mut cached = engine.session();
    let mut plain = Engine::new(config.with_cache_config(CacheConfig::disabled())).session();
    for offset in [0, 0, 40] {
        let phi = shifted_lineage(offset);
        let a = cached.attribute(&phi).unwrap();
        let b = plain.attribute(&phi).unwrap();
        assert_eq!(rendering(phi.universe(), &a), rendering(phi.universe(), &b));
        assert_eq!((a.stats.canon_steps, a.stats.canon_searches), (0, 0));
    }
    assert_eq!(cached.stats().cache_hits, 2, "both repeats are served from the cache");
    assert_eq!(cached.stats().canon_searches, 0, "equal presentations never search");
    let stats = engine.stats().cache;
    assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 1, 1));
    assert_eq!(stats.canon_searches, 0);
}

#[test]
fn batch_of_one_presentation_compiles_once_at_every_thread_count() {
    let lineages: Vec<Dnf> = (0..6).map(|k| shifted_lineage(k * 10)).collect();
    let refs: Vec<&Dnf> = lineages.iter().collect();
    let plain = Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()))
        .session()
        .attribute_batch(&refs, BatchOptions::default());
    let one_compile = plain[0].as_ref().unwrap().stats.compile_steps;
    for threads in [1, 2] {
        let engine = Engine::new(EngineConfig::default().with_threads(threads));
        let mut session = engine.session();
        let out = session.attribute_batch(&refs, BatchOptions::default());
        for ((phi, a), b) in lineages.iter().zip(&out).zip(&plain) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(rendering(phi.universe(), a), rendering(phi.universe(), b), "{threads}");
        }
        assert!(!out[0].as_ref().unwrap().stats.cache_hit);
        assert!(out[1..].iter().all(|a| a.as_ref().unwrap().stats.cache_hit));
        let stats = session.stats();
        assert_eq!(stats.compile_steps, one_compile, "one compile for the whole batch");
        assert_eq!((stats.cache_hits, stats.canon_searches, stats.canon_steps), (5, 0, 0));
        assert_eq!(engine.stats().cache.insertions, 1);
        // In-batch reuse is a cache miss for the engine: one per instance.
        let cache = engine.stats().cache;
        assert_eq!((cache.hits, cache.misses, cache.insertions), (0, 6, 1));
    }
}

#[test]
fn in_batch_presentation_reuse_in_an_occupied_bucket_is_a_miss() {
    // Two disjoint triangles share the hexagon's fingerprint but are not
    // isomorphic to it. With the hexagon resident, the first triangle copy
    // searches, misses and compiles; the second copy has the same dense
    // presentation and reuses that compile with no search.
    let ring = |vars: &[u32]| -> Vec<Vec<Var>> {
        (0..vars.len()).map(|k| vec![Var(vars[k]), Var(vars[(k + 1) % vars.len()])]).collect()
    };
    let hexagon = Dnf::from_clauses(ring(&[0, 1, 2, 3, 4, 5]));
    let triangles = |offset: u32| {
        let mut clauses = ring(&[offset, offset + 1, offset + 2]);
        clauses.extend(ring(&[offset + 3, offset + 4, offset + 5]));
        Dnf::from_clauses(clauses)
    };
    let lineages = [triangles(100), triangles(200)];
    let refs: Vec<&Dnf> = lineages.iter().collect();
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    session.attribute(&hexagon).unwrap();
    let before = engine.stats().cache;
    let out = session.attribute_batch(&refs, BatchOptions::default());
    let after = engine.stats().cache;
    assert_eq!(after.hits - before.hits, 0);
    assert_eq!(after.misses - before.misses, 2, "both copies are misses");
    assert_eq!(after.insertions - before.insertions, 1);
    let (first, second) = (out[0].as_ref().unwrap(), out[1].as_ref().unwrap());
    assert_eq!(first.stats.canon_searches, 2, "the probe and the unkeyed hexagon");
    assert!(!first.stats.cache_hit);
    assert_eq!(second.stats.canon_searches, 0);
    assert_eq!(second.stats.compile_steps, 0);
    let plain = Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()))
        .session()
        .attribute_batch(&refs, BatchOptions::default());
    for ((phi, a), b) in lineages.iter().zip(&out).zip(&plain) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(rendering(phi.universe(), a), rendering(phi.universe(), b));
    }
}

#[test]
fn weighted_lineages_with_one_skeleton_presentation_never_share_by_presentation() {
    // The odd weight in the middle vs at the end of a 4-path: equal
    // skeleton presentation and equal fingerprint, different functions.
    let path = |weights: [i64; 3], kind| {
        WeightedDnf::from_weighted_clauses(
            kind,
            vec![
                (vec![Var(0), Var(1)], Rational::from(weights[0])),
                (vec![Var(1), Var(2)], Rational::from(weights[1])),
                (vec![Var(2), Var(3)], Rational::from(weights[2])),
            ],
        )
    };
    let variants = [
        path([2, 9, 2], AggregateKind::Sum),
        path([9, 2, 2], AggregateKind::Sum),
        path([2, 9, 2], AggregateKind::Max),
    ];
    let engine = Engine::new(EngineConfig::default());
    let mut cached = engine.session();
    let mut plain =
        Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled())).session();
    for lineage in &variants {
        let a = cached.attribute_aggregate(lineage).unwrap();
        let b = plain.attribute_aggregate(lineage).unwrap();
        assert!(
            !a.stats.cache_hit,
            "{:?} {:?} must not be served",
            lineage.kind(),
            lineage.weights()
        );
        assert_eq!(rendering(lineage.universe(), &a), rendering(lineage.universe(), &b));
    }
    // The exact repeat of each variant is a presentation hit.
    for lineage in &variants {
        let a = cached.attribute_aggregate(lineage).unwrap();
        assert!(a.stats.cache_hit);
        assert_eq!(a.stats.canon_searches, 0);
    }
    assert_eq!(engine.stats().cache.entries, 3);
}

#[test]
fn in_batch_reuse_maps_back_by_presentation_or_through_witnesses() {
    // A 3-path whose middle fact holds the middle label, a relabelling whose
    // middle fact holds the smallest label (another presentation), and a
    // shifted copy of the first (the same presentation). The middle fact
    // scores differently from the ends, so a reuse mapped back the wrong way
    // shows.
    let path = |a: u32, b: u32, c: u32| {
        Dnf::from_clauses(vec![vec![Var(a), Var(b)], vec![Var(b), Var(c)]])
    };
    let lineages = [path(0, 1, 2), path(21, 20, 22), path(10, 11, 12)];
    let refs: Vec<&Dnf> = lineages.iter().collect();
    let plain = Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()))
        .session()
        .attribute_batch(&refs, BatchOptions::default());
    for threads in [1, 2] {
        let mut session = Engine::new(EngineConfig::default().with_threads(threads)).session();
        let out = session.attribute_batch(&refs, BatchOptions::default());
        for ((phi, a), b) in lineages.iter().zip(&out).zip(&plain) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(rendering(phi.universe(), a), rendering(phi.universe(), b), "{threads}");
        }
        assert_eq!(session.stats().cache_hits, 2, "both later paths reuse the first compile");
        // The relabelling keys itself and the pending owner; the shifted
        // copy reuses the owner by presentation, with no search.
        assert_eq!(session.stats().canon_searches, 2);
        assert_eq!(out[2].as_ref().unwrap().stats.canon_searches, 0);
    }
}

#[test]
fn a_repeated_presentation_reuses_its_witness_within_a_batch() {
    let path = |a: u32, b: u32, c: u32| {
        Dnf::from_clauses(vec![vec![Var(a), Var(b)], vec![Var(b), Var(c)]])
    };
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    // The resident holds the presentation with the middle fact in the middle.
    session.attribute(&path(0, 1, 2)).unwrap();
    // Two copies of another presentation (middle fact smallest): both hit
    // through the canonical key, and only the first pays the search.
    let lineages = [path(21, 20, 22), path(31, 30, 32)];
    let refs: Vec<&Dnf> = lineages.iter().collect();
    let out = session.attribute_batch(&refs, BatchOptions::default());
    let plain = Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()))
        .session()
        .attribute_batch(&refs, BatchOptions::default());
    for ((phi, a), b) in lineages.iter().zip(&out).zip(&plain) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert!(a.stats.cache_hit);
        assert_eq!(rendering(phi.universe(), a), rendering(phi.universe(), b));
    }
    assert!(out[0].as_ref().unwrap().stats.canon_searches > 0);
    assert_eq!(out[1].as_ref().unwrap().stats.canon_searches, 0);
}
