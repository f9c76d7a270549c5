//! Cross-crate integration tests: database → query → lineage → d-tree →
//! Banzhaf / Shapley / ranking, plus agreement between all algorithms.

use banzhaf_repro::prelude::*;

/// The App. D database: Q() :- R(X), S(X,Y), T(X,Z) over 18 endogenous facts.
fn app_d_setup() -> (Database, Dnf, FactId, FactId) {
    let mut db = Database::new();
    db.add_relation("R", 1);
    db.add_relation("S", 2);
    db.add_relation("T", 2);
    let r1 = db.insert_endogenous("R", vec![1.into()]).unwrap();
    let r2 = db.insert_endogenous("R", vec![2.into()]).unwrap();
    for b in 1..=3i64 {
        db.insert_endogenous("S", vec![1.into(), b.into()]).unwrap();
    }
    for b in 1..=2i64 {
        db.insert_endogenous("S", vec![2.into(), b.into()]).unwrap();
    }
    for b in 1..=3i64 {
        db.insert_endogenous("T", vec![1.into(), b.into()]).unwrap();
    }
    for b in 1..=8i64 {
        db.insert_endogenous("T", vec![2.into(), b.into()]).unwrap();
    }
    let query = parse_program("Q() :- R(X), S(X, Y), T(X, Z).").unwrap();
    let result = evaluate(&query, &db);
    let lineage = result.answers()[0].lineage.clone();
    (db, lineage, r1, r2)
}

#[test]
fn full_pipeline_on_paper_running_example() {
    // Examples 5–7 of the paper.
    let mut db = Database::new();
    db.add_relation("R", 3);
    db.add_relation("S", 3);
    db.add_relation("T", 2);
    let r = db.insert_endogenous("R", vec![1.into(), 2.into(), 3.into()]).unwrap();
    let s1 = db.insert_endogenous("S", vec![1.into(), 2.into(), 4.into()]).unwrap();
    db.insert_endogenous("S", vec![1.into(), 2.into(), 5.into()]).unwrap();
    let t = db.insert_endogenous("T", vec![1.into(), 6.into()]).unwrap();

    let query = parse_program("Q() :- R(X, Y, Z), S(X, Y, V), T(X, U).").unwrap();
    assert!(is_hierarchical(&query.disjuncts[0]));
    assert!(is_self_join_free(&query.disjuncts[0]));

    let result = evaluate(&query, &db);
    assert!(result.is_satisfied());
    let lineage = result.answers()[0].lineage.clone();
    assert_eq!(lineage.num_clauses(), 2);
    assert_eq!(lineage.num_vars(), 4);

    // Hierarchical query ⇒ the d-tree needs no Shannon expansion.
    let tree =
        DTree::compile_full(lineage.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
            .unwrap();
    assert_eq!(tree.stats().exclusive, 0);

    let exact = exaban_all(&tree);
    assert_eq!(exact.model_count.to_u64(), Some(3));
    assert_eq!(exact.value(Var(r.0)).unwrap().to_u64(), Some(3));
    assert_eq!(exact.value(Var(s1.0)).unwrap().to_u64(), Some(1));
    assert_eq!(exact.value(Var(t.0)).unwrap().to_u64(), Some(3));

    // The most influential facts are R and T (tied), certified by IchiBan.
    let mut topk_tree = DTree::from_leaf(lineage);
    let topk =
        ichiban_topk(&mut topk_tree, 2, &IchiBanOptions::certain(), &Budget::unlimited()).unwrap();
    assert!(topk.certified);
    assert!(topk.members.contains(&Var(r.0)));
    assert!(topk.members.contains(&Var(t.0)));
}

#[test]
fn appendix_d_banzhaf_and_shapley_rankings_disagree() {
    let (_db, lineage, r1, r2) = app_d_setup();
    assert_eq!(lineage.num_vars(), 18);
    assert_eq!(lineage.num_clauses(), 9 + 16);

    let tree =
        DTree::compile_full(lineage, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
    let banzhaf = exaban_all(&tree);
    let shapley = shapley_all(&tree);
    let v1 = Var(r1.0);
    let v2 = Var(r2.0);

    // The exact totals of the App. D table.
    assert_eq!(banzhaf.value(v1).unwrap().to_string(), "62867");
    assert_eq!(banzhaf.value(v2).unwrap().to_string(), "60435");
    // Banzhaf prefers R(a1), Shapley prefers R(a2).
    assert!(banzhaf.value(v1) > banzhaf.value(v2));
    assert!(shapley[&v1] < shapley[&v2]);

    // Per-size critical-set counts match selected rows of the App. D table.
    let critical = critical_counts_all(&tree);
    assert_eq!(critical[&v1][2].to_u64(), Some(9));
    assert_eq!(critical[&v2][2].to_u64(), Some(16));
    assert_eq!(critical[&v1][8].to_u64(), Some(13_129));
    assert_eq!(critical[&v2][8].to_u64(), Some(12_526));
    assert_eq!(critical[&v1][16].to_u64(), Some(1));
    assert_eq!(critical[&v2][16].to_u64(), Some(1));
    // And they sum to the Banzhaf values (Eq. (16)).
    let sum1: u64 = critical[&v1].iter().map(|c| c.to_u64().unwrap()).sum();
    assert_eq!(sum1, 62_867);
}

#[test]
fn all_algorithms_agree_on_workload_instances() {
    // Exact agreement of ExaBan, Sig22 and brute force, plus containment of
    // AdaBan intervals, on a sample of small workload lineages.
    let corpus = academic_like(&DatasetSpec::default());
    let mut checked = 0;
    for instance in &corpus.instances {
        let lineage = &instance.lineage;
        if lineage.num_vars() == 0 || lineage.num_vars() > 14 {
            continue;
        }
        let tree = DTree::compile_full(
            lineage.clone(),
            PivotHeuristic::MostFrequent,
            &Budget::unlimited(),
        )
        .unwrap();
        let exact = exaban_all(&tree);
        let sig = sig22_exact(lineage, &Budget::unlimited()).unwrap();
        assert_eq!(exact.model_count, lineage.brute_force_model_count());
        assert_eq!(exact.model_count, sig.model_count);

        let vars: Vec<Var> = lineage.universe().iter().collect();
        let mut partial = DTree::from_leaf(lineage.clone());
        let intervals = adaban_all(
            &mut partial,
            &vars,
            &AdaBanOptions::with_epsilon_str("0.1"),
            &Budget::unlimited(),
        )
        .unwrap();
        for (v, interval) in intervals {
            let truth = exact.value(v).unwrap();
            assert_eq!(Int::from(truth.clone()), lineage.brute_force_banzhaf(v));
            assert_eq!(exact.value(v), sig.value(v));
            assert!(&interval.lower <= truth && truth <= &interval.upper);
        }
        checked += 1;
        if checked >= 40 {
            break;
        }
    }
    assert!(checked >= 10, "expected enough small instances to check, got {checked}");
}

#[test]
fn hierarchical_queries_compile_without_shannon_expansion() {
    // Operational counterpart of the dichotomy (Thm. 17): hierarchical
    // lineages decompose into independent functions only.
    let mut db = Database::new();
    db.add_relation("R", 2);
    db.add_relation("S", 3);
    db.add_relation("T", 2);
    for x in 0..4i64 {
        db.insert_endogenous("R", vec![x.into(), (x * 10).into()]).unwrap();
        for y in 0..3i64 {
            db.insert_endogenous("S", vec![x.into(), y.into(), (x + y).into()]).unwrap();
        }
        db.insert_endogenous("T", vec![x.into(), (x + 100).into()]).unwrap();
    }
    let hierarchical = parse_program("Q() :- R(X, A), S(X, Y, B), T(X, C).").unwrap();
    assert!(is_hierarchical(&hierarchical.disjuncts[0]));
    let lineage = evaluate(&hierarchical, &db).answers()[0].lineage.clone();
    let tree =
        DTree::compile_full(lineage, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
    assert_eq!(tree.stats().exclusive, 0);

    // The basic non-hierarchical query over the same data does need Shannon
    // expansion.
    let mut db2 = Database::new();
    db2.add_relation("R", 1);
    db2.add_relation("S", 2);
    db2.add_relation("T", 1);
    for x in 0..3i64 {
        db2.insert_endogenous("R", vec![x.into()]).unwrap();
        db2.insert_endogenous("T", vec![x.into()]).unwrap();
        for y in 0..3i64 {
            db2.insert_endogenous("S", vec![x.into(), y.into()]).unwrap();
        }
    }
    let non_hierarchical = parse_program("Q() :- R(X), S(X, Y), T(Y).").unwrap();
    assert!(!is_hierarchical(&non_hierarchical.disjuncts[0]));
    let lineage = evaluate(&non_hierarchical, &db2).answers()[0].lineage.clone();
    let tree =
        DTree::compile_full(lineage, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
    assert!(tree.stats().exclusive > 0);
}

#[test]
fn union_queries_and_exogenous_facts() {
    let mut db = Database::new();
    db.add_relation("Movie", 2);
    db.add_relation("Directs", 2);
    db.add_relation("Genre", 2);
    db.insert_endogenous("Movie", vec![0.into(), 2016.into()]).unwrap();
    db.insert_endogenous("Movie", vec![1.into(), 1990.into()]).unwrap();
    db.insert_endogenous("Directs", vec![7.into(), 1.into()]).unwrap();
    db.insert_exogenous("Genre", vec![0.into(), 1.into()]).unwrap();

    let query =
        parse_program("Q(M) :- Movie(M, Y), Y >= 2015. Q(M) :- Directs(7, M), Movie(M, Y).")
            .unwrap();
    let result = evaluate(&query, &db);
    assert_eq!(result.answers().len(), 2);
    // The answer produced by the second disjunct depends on two facts.
    let lineage = result.lineage_of(&[Value::from(1)]).unwrap();
    assert_eq!(lineage.num_vars(), 2);
    let tree =
        DTree::compile_full(lineage.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
            .unwrap();
    let values = exaban_all(&tree);
    for v in lineage.universe().iter() {
        assert_eq!(values.value(v).unwrap().to_u64(), Some(1));
    }
}

#[test]
fn exaban_and_sig22_agree_on_random_dnfs() {
    // Regression guard for the baseline wiring: the paper's exact algorithm
    // (DNF d-tree compilation) and the Sig22 competitor (CNF encoding + DPLL)
    // must produce identical model counts and Banzhaf values on random small
    // DNFs, which are also cross-checked against brute force.
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(0x5EED);
    for round in 0..20u64 {
        let shape = LineageShape {
            num_vars: 4 + (round as usize % 9),
            num_clauses: 2 + (round as usize % 7),
            min_width: 1,
            max_width: 3,
            skew: 0.5,
        };
        let phi = LineageGenerator::new(shape).generate(&mut rng);
        let tree =
            DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
                .unwrap();
        let exact = exaban_all(&tree);
        let sig = sig22_exact(&phi, &Budget::unlimited()).unwrap();
        assert_eq!(exact.model_count, sig.model_count, "model counts differ on round {round}");
        assert_eq!(exact.model_count, phi.brute_force_model_count());
        for v in phi.universe().iter() {
            assert_eq!(
                exact.value(v),
                sig.value(v),
                "Banzhaf values differ for {v:?} on round {round}"
            );
            assert_eq!(Int::from(exact.value(v).unwrap().clone()), phi.brute_force_banzhaf(v));
        }
    }
}

#[test]
fn normalizations_and_error_measures_pipeline() {
    let corpus = imdb_like(&DatasetSpec::default());
    let instance = corpus
        .instances
        .iter()
        .find(|i| i.lineage.num_vars() >= 5 && i.lineage.num_vars() <= 12)
        .expect("mid-sized instance exists");
    let tree = DTree::compile_full(
        instance.lineage.clone(),
        PivotHeuristic::MostFrequent,
        &Budget::unlimited(),
    )
    .unwrap();
    let exact: std::collections::HashMap<Var, Natural> =
        exaban_all(&tree).values.into_iter().collect();
    let index = normalized_index(&exact);
    let total: f64 = index.values().sum();
    assert!((total - 1.0).abs() < 1e-9 || total == 0.0);
    let power = normalized_power(&exact, instance.lineage.num_vars());
    assert!(power.values().all(|&p| (0.0..=1.0).contains(&p)));
    // An exact "estimate" has zero normalized ℓ1 distance.
    let as_estimate: std::collections::HashMap<Var, f64> =
        exact.iter().map(|(v, b)| (*v, b.to_f64())).collect();
    assert!(l1_distance_normalized(&as_estimate, &exact) < 1e-9);
}
