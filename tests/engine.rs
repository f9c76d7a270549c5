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

/// `true` iff ExaBan answers `phi` in closed form (its clauses share no
/// variable), so a session serves it without a cache lookup or entry.
fn closed_form(phi: &Dnf) -> bool {
    exaban_closed_form(phi).is_some()
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
            // ExaBan answers independent clauses in closed form, with no
            // lookup; Sig22 has no closed form.
            let closed = algorithm == Algorithm::ExaBan && closed_form(&phi);
            prop_assert_eq!(cached.stats().cache_hits, u64::from(!closed));
            prop_assert_eq!(cached.stats().closed_forms, if closed { 2 } else { 0 });
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
        let stats = engine.stats().cache;
        if closed_form(&phi) {
            // Answered in closed form: neither lineage looks the cache up.
            prop_assert!(!second.stats.cache_hit);
            let counts = (stats.hits, stats.misses, stats.insertions, stats.entries);
            prop_assert_eq!(counts, (0, 0, 0, 0));
            prop_assert_eq!(stats.canon_steps, 0, "a closed form keys nothing");
        } else {
            prop_assert!(second.stats.cache_hit, "the isomorph must hit the first entry");
            prop_assert_eq!(stats.insertions, 1, "one canonical shape, one entry");
            prop_assert_eq!(stats.hits, 1);
            prop_assert_eq!(stats.misses, 1);
            prop_assert_eq!(stats.entries, 1);
            if first_occurrence_presentation(&phi) == first_occurrence_presentation(&renamed) {
                // The isomorph happens to share phi's dense presentation:
                // the lookup settles by presentation and never searches.
                prop_assert_eq!(stats.canon_searches, 0, "an equal presentation needs no search");
            } else {
                prop_assert!(stats.canon_steps > 0, "canonicalization cost must be observable");
            }
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

/// `phi` with facts `x` and `y` exchanged.
fn swapped(phi: &Dnf, x: Var, y: Var) -> Dnf {
    let swap = |v: Var| {
        if v == x {
            y
        } else if v == y {
            x
        } else {
            v
        }
    };
    Dnf::from_clauses_with_universe(
        phi.clauses().iter().map(|c| c.iter().map(swap).collect::<Vec<_>>()),
        phi.universe().iter().map(swap).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's definitions hold through the session, cold and from the
    /// cache: a null fact (in no clause of the absorbed lineage) scores 0 and
    /// every other fact scores above 0, twin facts (exchanging them leaves
    /// the lineage unchanged) score equally, every value lies in
    /// `0..=2^(n-1)`, and a cached pass equals the cold pass. Each
    /// presentation appears twice in the batch, so the cached pass also
    /// settles repeated presentations within one batch.
    #[test]
    fn banzhaf_invariants_hold_cold_and_from_the_cache(
        phi in small_dnf(),
        unused in 0u32..3,
        seed in any::<u64>(),
    ) {
        let padding = (0..unused).map(|i| Var(20 + i));
        let phi = phi.widen_universe(phi.universe().iter().chain(padding).collect());
        let shift = |v: Var| Var(v.0 + 100);
        let shifted = Dnf::from_clauses_with_universe(
            phi.clauses().iter().map(|c| c.iter().map(shift).collect::<Vec<_>>()),
            phi.universe().iter().map(shift).collect(),
        );
        let (isomorph, _) = random_isomorph(&phi, seed);
        let batch = [&phi, &shifted, &isomorph, &phi, &isomorph, &shifted];
        let cold = Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()))
            .session()
            .attribute_batch(&batch, BatchOptions::default());
        let engine = Engine::new(EngineConfig::default());
        engine.session().attribute_batch(&batch, BatchOptions::default());
        let cached = engine.session().attribute_batch(&batch, BatchOptions::default());
        for ((lineage, cold), cached) in batch.iter().zip(&cold).zip(&cached) {
            let (cold, cached) = (cold.as_ref().unwrap(), cached.as_ref().unwrap());
            prop_assert_eq!(
                cached.stats.cache_hit,
                !closed_form(lineage),
                "a warm cache serves every instance that is not answered in closed form"
            );
            prop_assert_eq!(cold.exact_values().unwrap(), cached.exact_values().unwrap());
            prop_assert_eq!(&cold.model_count, &cached.model_count);
            let values = cached.exact_values().unwrap();
            let relevant = lineage.absorb().used_vars();
            let ceiling = Natural::pow2(lineage.num_vars() - 1);
            for x in lineage.universe().iter() {
                prop_assert_eq!(values[&x].is_zero(), !relevant.contains(x), "null fact {}", x);
                prop_assert!(values[&x] <= ceiling, "{} above 2^(n-1)", x);
                for y in lineage.universe().iter().filter(|&y| y > x) {
                    if swapped(lineage, x, y) == **lineage {
                        prop_assert_eq!(&values[&x], &values[&y], "twins {} and {}", x, y);
                    }
                }
            }
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
            let attribution = session.attribute(&answer.lineage).unwrap();
            prop_assert_eq!(
                attribution.aggregate,
                Some(if count { AggregateKind::Count } else { AggregateKind::Sum })
            );
            for x in answer.lineage.universe().iter() {
                let Some(Score::Rational(got)) = attribution.value(x) else {
                    panic!("aggregate scores are exact rationals");
                };
                prop_assert_eq!(
                    &**got,
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
        let attribution = session.attribute(lineage).unwrap();
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
    assert!(session.attribute(&renamed).unwrap().stats.cache_hit);
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

/// An `imdb_q5`-shaped lineage: per movie `m`, every clause
/// `movie_m ∧ directs_d ∧ acts_in_a` over its directors and actors, so each
/// movie is a cross-product core under its movie fact.
fn cast_lineage(casts: &[(u32, u32)]) -> Dnf {
    let mut clauses = Vec::new();
    let mut next = 0u32;
    for &(directors, actors) in casts {
        let (movie, first_actor) = (next, next + 1 + directors);
        for d in next + 1..first_actor {
            for a in first_actor..first_actor + actors {
                clauses.push(vec![Var(movie), Var(d), Var(a)]);
            }
        }
        next = first_actor + actors;
    }
    Dnf::from_clauses(clauses)
}

#[test]
fn renamed_cross_product_lineages_hit_each_other_and_match_cache_off() {
    let phi = cast_lineage(&[(2, 10), (2, 10), (3, 4)]);
    let (renamed, bijection) = random_isomorph(&phi, 7);
    assert_ne!(
        first_occurrence_presentation(&phi),
        first_occurrence_presentation(&renamed),
        "the copy must need a canonical key, not a presentation match"
    );
    let engine = Engine::new(EngineConfig::default());
    let mut cached = engine.session();
    let mut plain =
        Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled())).session();
    let mut values = Vec::new();
    for lineage in [&phi, &renamed] {
        let a = cached.attribute(lineage).unwrap();
        let b = plain.attribute(lineage).unwrap();
        assert_eq!(rendering(lineage.universe(), &a), rendering(lineage.universe(), &b));
        values.push(a);
    }
    assert!(values[1].stats.cache_hit, "the renamed copy must hit the first entry");
    let stats = engine.stats().cache;
    assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    for x in phi.universe().iter() {
        let (a, b) = (values[0].value(x).unwrap(), values[1].value(bijection[&x]).unwrap());
        assert_eq!(a.exact(), b.exact(), "{x}");
    }
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
        let a = cached.attribute(lineage).unwrap();
        let b = plain.attribute(lineage).unwrap();
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
        let a = cached.attribute(lineage).unwrap();
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
        // copy reuses the owner by presentation, with no keying. A 3-path
        // factors and splits all the way down, so neither keying searches.
        assert!(out[1].as_ref().unwrap().stats.canon_steps > 0);
        assert_eq!(session.stats().canon_searches, 0);
        assert_eq!(out[2].as_ref().unwrap().stats.canon_steps, 0);
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
    // through the canonical key, and only the first pays the keying (which
    // decomposes without a search).
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
    assert!(out[0].as_ref().unwrap().stats.canon_steps > 0);
    assert_eq!(out[0].as_ref().unwrap().stats.canon_searches, 0);
    assert_eq!(out[1].as_ref().unwrap().stats.canon_steps, 0);
}

/// The 16 queries of the three paper corpora, each with its database.
fn corpora_queries(workloads: &[LiveWorkload]) -> Vec<(&UnionQuery, &Database)> {
    workloads.iter().flat_map(|w| w.queries.iter().map(move |(_, q)| (q, &w.db))).collect()
}

fn corpora() -> Vec<LiveWorkload> {
    let spec = DatasetSpec::default();
    vec![academic_workload(&spec), imdb_workload(&spec), tpch_workload(&spec)]
}

/// What one explain pass over the corpora returned and paid.
#[derive(Debug, PartialEq)]
struct Pass {
    /// Every answer's rendering, in query and answer order.
    renderings: Vec<Vec<String>>,
    /// Every answer's cache-hit flag.
    hits: Vec<bool>,
    /// Whether each answer's lineage has a closed form (clauses that share
    /// no variable), so the session served it without the cache.
    closed: Vec<bool>,
    /// The keying steps and searches the pass added to the session.
    keyed: (u64, u64),
}

impl Pass {
    /// `true` iff every answer was a cache hit or served in closed form.
    fn all_served(&self) -> bool {
        self.hits.iter().zip(&self.closed).all(|(&hit, &closed)| hit != closed)
    }
}

fn explain_pass(session: &mut Session, queries: &[(&UnionQuery, &Database)]) -> Pass {
    let before = *session.stats();
    let (mut renderings, mut hits, mut closed) = (Vec::new(), Vec::new(), Vec::new());
    for &(query, db) in queries {
        for answer in session.explain(query, db).answers {
            let attribution = answer.attribution().expect("unlimited budget");
            renderings.push(rendering(answer.lineage.universe(), attribution));
            hits.push(attribution.stats.cache_hit);
            closed.push(closed_form(&answer.lineage));
        }
    }
    let after = *session.stats();
    assert_eq!(
        after.closed_forms - before.closed_forms,
        closed.iter().filter(|&&c| c).count() as u64,
        "the session serves exactly the closed-form lineages in closed form"
    );
    let keyed =
        (after.canon_steps - before.canon_steps, after.canon_searches - before.canon_searches);
    Pass { renderings, hits, closed, keyed }
}

/// The alias cache's acceptance property on the paper corpora: once every
/// presentation has been sighted twice, a warm explain pass keys nothing —
/// every answer is served in closed form, or by its fingerprint bucket's own
/// presentation or a known alias — and still equals a cache-off session bit
/// for bit. Closed-form answers make no lookup and leave no entry. One and
/// three shards agree on every pass.
#[test]
fn warm_corpora_passes_key_nothing_and_match_cache_off() {
    let workloads = corpora();
    let queries = corpora_queries(&workloads);
    assert_eq!(queries.len(), 16);
    let mut plain =
        Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled())).session();
    let cold = explain_pass(&mut plain, &queries);
    let mut per_shards = Vec::new();
    for shards in [1, 3] {
        let engine = Engine::new(
            EngineConfig::default().with_cache_config(CacheConfig::new().with_shards(shards)),
        );
        let mut session = engine.session();
        let passes: Vec<_> = (0..4).map(|_| explain_pass(&mut session, &queries)).collect();
        for pass in &passes {
            assert_eq!(pass.renderings, cold.renderings, "shards={shards}");
        }
        // A presentation becomes an alias the second time it keys to an
        // entry. Keying to a cache hit sights it, and so does keying to an
        // in-batch mate that inserts a new entry: the second pass learns
        // every alias, and the third keys nothing and hits everywhere.
        let keyed: Vec<(u64, u64)> = passes.iter().map(|pass| pass.keyed).collect();
        assert!(keyed[0].0 > keyed[1].0, "{keyed:?}");
        assert_eq!(keyed[2], (0, 0), "shards={shards}: the third pass keys nothing");
        assert_eq!(keyed[3], (0, 0), "shards={shards}: a warm pass keys nothing");
        assert!(passes[2].all_served() && passes[3].all_served(), "a warm pass is all hits");
        let stats = engine.stats().cache;
        let session_stats = session.stats();
        assert_eq!(
            stats.hits + stats.misses,
            session_stats.attributions - session_stats.closed_forms,
            "closed-form answers make no lookup"
        );
        assert_eq!(stats.entries, 64, "shards={shards}");
        per_shards.push((passes, stats.hits, stats.misses, stats.insertions, stats.canon_steps));
    }
    assert_eq!(per_shards[0], per_shards[1], "1 and 3 shards must agree on every pass");
}

/// Aliases are not persisted: a warm-started engine serves every answer
/// from the snapshot, but relearns the aliases (keying again on its first
/// pass) before a pass keys nothing. The snapshot format stays at version 3.
#[test]
fn warm_starts_carry_no_aliases_and_relearn_them() {
    let workloads = corpora();
    let queries = corpora_queries(&workloads);
    let dir = std::env::temp_dir().join(format!("banzhaf-alias-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpora.bzc");
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    let cold = explain_pass(&mut session, &queries);
    explain_pass(&mut session, &queries);
    assert_eq!(explain_pass(&mut session, &queries).keyed, (0, 0));
    engine.save_cache(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..8], b"BZHSNAP\0");
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 3, "snapshot version 3");

    let warm = Engine::new(
        EngineConfig::default().with_cache_config(CacheConfig::new().with_warm_start(&path)),
    );
    assert_eq!(warm.stats().cache.entries, 64);
    let mut session = warm.session();
    let passes: Vec<_> = (0..2).map(|_| explain_pass(&mut session, &queries)).collect();
    for pass in &passes {
        assert!(pass.all_served(), "the snapshot serves every answer without a closed form");
        assert_eq!(pass.renderings, cold.renderings);
    }
    // Every entry is resident from the start, so each aliased presentation
    // keys to it by a cache hit on both of the first two passes.
    assert!(passes[0].keyed.0 > 0, "the warm engine keys the presentations it has no alias for");
    let relearned = explain_pass(&mut session, &queries);
    assert_eq!(relearned.keyed, (0, 0), "and relearns them as aliases");
    assert_eq!(warm.stats().cache.insertions, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Closed-form answers on the paper corpora: 1044 of the 1362 answer
/// lineages have clauses that share no variable. A cache-off session, cached
/// sessions at one and two threads, the serve tier and live sessions return
/// the same bits for every answer, and the closed-form lineages make no
/// cache lookup and leave no entry.
#[test]
fn closed_form_answers_agree_across_cache_threads_serve_and_live() {
    let workloads = corpora();
    let queries = corpora_queries(&workloads);
    let mut plain =
        Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled())).session();
    let cold = explain_pass(&mut plain, &queries);
    let (answers, closed) = (cold.closed.len() as u64, plain.stats().closed_forms);
    assert_eq!((answers, closed), (1362, 1044));
    for threads in [1, 2] {
        for cache in [CacheConfig::disabled(), CacheConfig::new()] {
            let enabled = cache.enabled;
            let engine =
                Engine::new(EngineConfig::default().with_cache_config(cache).with_threads(threads));
            let pass = explain_pass(&mut engine.session(), &queries);
            assert_eq!(pass.renderings, cold.renderings, "threads={threads} cache={enabled}");
            assert!(pass.hits.iter().zip(&pass.closed).all(|(&hit, &closed)| !(hit && closed)));
            let stats = engine.stats().cache;
            let looked_up = if enabled { answers - closed } else { 0 };
            assert_eq!(stats.hits + stats.misses, looked_up, "closed forms make no lookup");
            assert_eq!(stats.entries, if enabled { 64 } else { 0 }, "and leave no entry");
        }
    }

    // Served: every answer lineage as its own request.
    let service = AttributionService::start(
        ServeConfig::new(EngineConfig::default()).with_workers(2).with_queue_capacity(2048),
    );
    let lineages: Vec<Dnf> = queries
        .iter()
        .flat_map(|&(query, db)| evaluate(query, db).into_answers().into_iter().map(|a| a.lineage))
        .collect();
    let tickets: Vec<_> = lineages
        .iter()
        .map(|l| service.submit(l.clone(), RequestOptions::default()).expect("queue has room"))
        .collect();
    for ((lineage, served), want) in
        lineages.iter().zip(block_on(join_all(tickets))).zip(&cold.renderings)
    {
        assert_eq!(&rendering(lineage.universe(), &served.expect("unlimited budget")), want);
    }
    let stats = service.engine_stats().cache;
    assert_eq!(stats.hits + stats.misses, answers - closed, "served closed forms make no lookup");

    // Live: every registered query matches a cold re-evaluation, before and
    // after a delete and re-insert of one fact.
    for workload in &workloads {
        let engine = Engine::new(EngineConfig::default());
        let mut live = engine.live_session(workload.db.clone());
        for (name, query) in &workload.queries {
            live.register(name.clone(), query.clone());
        }
        let (relation, values) = workload
            .db
            .endogenous_facts()
            .find(|(_, f)| workload.mutable_relations.iter().any(|r| r == f.relation()))
            .map(|(_, f)| (f.relation().to_owned(), f.values().to_vec()))
            .expect("a mutable fact");
        let check = |live: &LiveSession| {
            for (name, query) in &workload.queries {
                assert_matches_cold(live, name, query);
            }
        };
        check(&live);
        for update in
            [Update::delete(relation.clone(), values.clone()), Update::insert(relation, values)]
        {
            live.apply_update(update).unwrap();
            check(&live);
        }
        assert!(live.session_stats().closed_forms > 0, "{}", workload.name);
    }
}

/// Live updates reach entries through aliases too: a seeded stream of
/// delete/re-insert pairs over the IMDB-like database, replayed three times
/// (a re-inserted fact gets a fresh id, so touched answers come back in
/// other presentations), keeps every registered query bit-identical to a
/// cold re-evaluation after every update.
#[test]
fn live_updates_through_aliases_match_cold_reevaluation() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let imdb = imdb_workload(&DatasetSpec::default());
    let candidates: Vec<(String, Vec<Value>)> = imdb
        .db
        .endogenous_facts()
        .filter(|(_, f)| imdb.mutable_relations.iter().any(|r| r == f.relation()))
        .map(|(_, f)| (f.relation().to_owned(), f.values().to_vec()))
        .collect();
    let mut rng = StdRng::seed_from_u64(22);
    let picks: Vec<usize> = (0..4).map(|_| rng.gen_range(0..candidates.len())).collect();
    let engine = Engine::new(EngineConfig::default());
    let mut live = engine.live_session(imdb.db.clone());
    for (name, query) in &imdb.queries {
        live.register(name.clone(), query.clone());
    }
    let mut keyed = Vec::new();
    for _ in 0..3 {
        let before = live.session_stats().canon_steps;
        for &pick in &picks {
            let (relation, values) = candidates[pick].clone();
            for update in [
                Update::delete(relation.clone(), values.clone()),
                Update::insert(relation.clone(), values.clone()),
            ] {
                live.apply_update(update).unwrap();
                for (name, query) in &imdb.queries {
                    assert_matches_cold(&live, name, query);
                }
            }
        }
        keyed.push(live.session_stats().canon_steps - before);
    }
    // The first round keys the touched answers' new presentations, the
    // second learns them as aliases, and the third is served without keying.
    assert!(keyed[0] > 0 && keyed[2] == 0, "{keyed:?}");
}

/// A weighted (`SUM`) lineage over `phi`'s clauses, clause `k` weighing
/// `1 + (seed + k) % 3`.
fn weighted_over(phi: &Dnf, seed: u64) -> WeightedDnf {
    WeightedDnf::from_weighted_clauses(
        AggregateKind::Sum,
        phi.clauses().iter().enumerate().map(|(k, c)| {
            (c.iter().collect::<Vec<Var>>(), Rational::from(1 + ((seed + k as u64) % 3) as i64))
        }),
    )
}

/// `w` renamed through `bijection`, each weight carried with its clause.
fn renamed_weighted(
    w: &WeightedDnf,
    bijection: &std::collections::HashMap<Var, Var>,
) -> WeightedDnf {
    WeightedDnf::from_weighted_clauses(
        w.kind(),
        w.dnf().clauses().iter().zip(w.weights()).map(|(c, weight)| {
            (c.iter().map(|v| bijection[&v]).collect::<Vec<Var>>(), weight.clone())
        }),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random renamings and clause shuffles of one random lineage, sent
    /// three rounds through one engine: the first keys each new
    /// presentation, the second learns it as an alias, the third is served
    /// by presentation or alias without any keying — and every answer, alias
    /// hits included, equals the brute-force Banzhaf value, Boolean and
    /// weighted alike.
    #[test]
    fn alias_hits_on_random_isomorphs_equal_brute_force(
        phi in small_dnf(),
        seeds in proptest::collection::vec(any::<u64>(), 3..=3),
    ) {
        let isomorphs: Vec<(Dnf, std::collections::HashMap<Var, Var>)> =
            seeds.iter().map(|&seed| random_isomorph(&phi, seed)).collect();
        let boolean: Vec<Dnf> =
            std::iter::once(phi.clone()).chain(isomorphs.iter().map(|(d, _)| d.clone())).collect();
        let base = weighted_over(&phi, seeds[0]);
        let weighted: Vec<WeightedDnf> = std::iter::once(base.clone())
            .chain(isomorphs.iter().map(|(_, bijection)| renamed_weighted(&base, bijection)))
            .collect();
        let engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        for round in 0..3 {
            for lineage in &boolean {
                let a = session.attribute(lineage).unwrap();
                for x in lineage.universe().iter() {
                    let brute = lineage.brute_force_banzhaf(x);
                    prop_assert!(!brute.is_negative());
                    prop_assert_eq!(a.value(x).unwrap().exact(), Some(brute.into_magnitude()));
                }
                if round == 2 {
                    prop_assert_eq!(a.stats.cache_hit, !closed_form(lineage));
                    prop_assert_eq!(a.stats.canon_steps, 0, "a warm presentation keys nothing");
                }
            }
            for lineage in &weighted {
                let a = session.attribute(lineage).unwrap();
                for x in lineage.universe().iter() {
                    let Some(Score::Rational(got)) = a.value(x) else {
                        panic!("aggregate scores are exact rationals");
                    };
                    prop_assert_eq!(&**got, &lineage.brute_force_aggregate_banzhaf(x));
                }
                if round == 2 {
                    prop_assert!(a.stats.cache_hit);
                    prop_assert_eq!(a.stats.canon_steps, 0, "a warm presentation keys nothing");
                }
            }
        }
    }
}
