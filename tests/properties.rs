//! Cross-crate property-based tests: on randomly generated lineages, all
//! algorithm layers must agree with the brute-force ground truth and with each
//! other, and the approximation algorithms must honour their guarantees.

use banzhaf_repro::prelude::*;
use proptest::prelude::*;

/// Strategy generating small random positive DNFs (as clause lists) so that
/// brute-force verification stays feasible.
fn small_dnf() -> impl Strategy<Value = Dnf> {
    // Between 1 and 8 clauses, each with 1..=3 variables drawn from 8.
    proptest::collection::vec(proptest::collection::vec(0u32..8, 1..=3), 1..=8).prop_map(
        |clauses| {
            Dnf::from_clauses(
                clauses.into_iter().map(|c| c.into_iter().map(Var).collect::<Vec<_>>()),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ExaBan on a compiled d-tree equals brute force for all variables, and
    /// the model count matches; both Shannon pivot heuristics agree.
    #[test]
    fn exaban_matches_brute_force(phi in small_dnf()) {
        for heuristic in [PivotHeuristic::MostFrequent, PivotHeuristic::FirstVariable] {
            let tree = DTree::compile_full(phi.clone(), heuristic, &Budget::unlimited()).unwrap();
            let result = exaban_all(&tree);
            prop_assert_eq!(result.model_count.clone(), phi.brute_force_model_count());
            for x in phi.universe().iter() {
                let expected = phi.brute_force_banzhaf(x);
                prop_assert_eq!(Int::from(result.value(x).unwrap().clone()), expected.clone());
                let (single, _) = exaban_single(&tree, x);
                prop_assert_eq!(single, expected);
            }
        }
    }

    /// The Sig22 baseline (CNF + DPLL compiler) agrees with ExaBan.
    #[test]
    fn sig22_agrees_with_exaban(phi in small_dnf()) {
        let tree = DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        let exact = exaban_all(&tree);
        let sig = sig22_exact(&phi, &Budget::unlimited()).unwrap();
        prop_assert_eq!(&exact.model_count, &sig.model_count);
        for x in phi.universe().iter() {
            prop_assert_eq!(exact.value(x), sig.value(x));
        }
    }

    /// Bounds on any partial d-tree bracket the exact Banzhaf value and model
    /// count, after every single expansion step.
    #[test]
    fn bounds_always_bracket_exact_values(phi in small_dnf(), opt4 in any::<bool>()) {
        let exact_count = phi.brute_force_model_count();
        let mut tree = DTree::from_leaf(phi.clone());
        loop {
            for x in phi.universe().iter() {
                let quad = bounds_for_var(&tree, x, opt4);
                let exact = phi.brute_force_banzhaf(x);
                prop_assert!(quad.banzhaf_lower <= exact);
                prop_assert!(exact <= quad.banzhaf_upper);
                prop_assert!(quad.count_lower <= exact_count);
                prop_assert!(exact_count <= quad.count_upper);
            }
            if tree.expand_largest_leaf(PivotHeuristic::MostFrequent).is_none() {
                break;
            }
        }
    }

    /// AdaBan returns an interval containing the exact value and satisfying
    /// the requested relative error, for several ε.
    #[test]
    fn adaban_interval_is_sound_and_tight_enough(phi in small_dnf(), eps_idx in 0usize..4) {
        let eps_str = ["0", "0.1", "0.3", "1"][eps_idx];
        let options = AdaBanOptions::with_epsilon_str(eps_str);
        let eps = Rational::from_decimal_str(eps_str).unwrap();
        let mut tree = DTree::from_leaf(phi.clone());
        for x in phi.universe().iter() {
            let interval = adaban(&mut tree, x, &options, &Budget::unlimited()).unwrap();
            let exact = phi.brute_force_banzhaf(x);
            prop_assert!(Int::from(interval.lower.clone()) <= exact);
            prop_assert!(exact <= Int::from(interval.upper.clone()));
            prop_assert!(interval.meets_epsilon(&eps));
        }
    }

    /// The exact ε-condition `(1−ε)·upper ≤ (1+ε)·lower` agrees with an f64
    /// evaluation away from the decision boundary.
    #[test]
    fn epsilon_condition_matches_f64(l in 0u64..1_000_000, span in 0u64..1_000_000, num in 0u64..100, den in 1u64..100) {
        let u = l + span;
        let eps = Rational::new(Int::from(num), Natural::from(den));
        let exact = ApproxInterval::new(Natural::from(l), Natural::from(u)).meets_epsilon(&eps);
        let e = num as f64 / den as f64;
        let lhs = (1.0 - e) * u as f64;
        let rhs = (1.0 + e) * l as f64;
        if (lhs - rhs).abs() > 1e-3 * (lhs.abs() + rhs.abs() + 1.0) {
            prop_assert_eq!(exact, lhs <= rhs);
        }
    }

    /// IchiBan's certain top-k contains only variables whose exact value is at
    /// least the k-th largest exact value (i.e. it is a valid top-k set under
    /// ties), and certified rankings are consistent with the exact values.
    #[test]
    fn ichiban_topk_is_exact(phi in small_dnf(), k in 1usize..5) {
        let mut exact: Vec<(Var, Int)> = phi.brute_force_all_banzhaf();
        exact.sort_by(|(va, ba), (vb, bb)| bb.cmp(ba).then(va.cmp(vb)));
        let k = k.min(exact.len());
        let threshold = exact[k - 1].1.clone();

        let mut tree = DTree::from_leaf(phi.clone());
        let topk = ichiban_topk(&mut tree, k, &IchiBanOptions::certain(), &Budget::unlimited()).unwrap();
        prop_assert_eq!(topk.members.len(), k);
        let exact_of = |v: Var| exact.iter().find(|(u, _)| *u == v).unwrap().1.clone();
        for member in &topk.members {
            prop_assert!(exact_of(*member) >= threshold.clone());
        }

        let mut tree = DTree::from_leaf(phi.clone());
        let ranking = ichiban_rank(&mut tree, &IchiBanOptions::certain(), &Budget::unlimited()).unwrap();
        prop_assert!(ranking.certified);
        let values: Vec<Int> = ranking.order.iter().map(|v| exact_of(*v)).collect();
        for w in values.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    /// Shapley values from the d-tree satisfy the efficiency axiom and the
    /// per-size critical counts sum to the Banzhaf values.
    #[test]
    fn shapley_and_critical_counts_are_consistent(phi in small_dnf()) {
        let tree = DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        let banzhaf = exaban_all(&tree);
        let critical = critical_counts_all(&tree);
        for x in phi.universe().iter() {
            let mut total = Natural::zero();
            for c in &critical[&x] {
                total += c;
            }
            prop_assert_eq!(&total, banzhaf.value(x).unwrap());
        }
        let shapley = shapley_all(&tree);
        let sum: f64 = shapley.values().map(ShapleyValue::to_f64).sum();
        let satisfied_by_all = !phi.is_false();
        let satisfied_by_none = phi.evaluate(&Assignment::empty());
        let expected = (satisfied_by_all as i32 - satisfied_by_none as i32) as f64;
        prop_assert!((sum - expected).abs() < 1e-6);
    }

    /// The lineage produced by the provenance-aware evaluator for a
    /// single-atom query has one clause per endogenous matching fact.
    #[test]
    fn single_atom_query_lineage(count in 1usize..8) {
        let mut db = Database::new();
        db.add_relation("R", 1);
        for i in 0..count {
            db.insert_endogenous("R", vec![(i as i64).into()]).unwrap();
        }
        let query = parse_program("Q() :- R(X).").unwrap();
        let result = evaluate(&query, &db);
        prop_assert_eq!(result.answers().len(), 1);
        let lineage = &result.answers()[0].lineage;
        prop_assert_eq!(lineage.num_clauses(), count);
        let tree = DTree::compile_full(lineage.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        let values = exaban_all(&tree);
        // Every fact is symmetric: Banzhaf value 1 (pivotal only when all
        // others are absent).
        for v in lineage.universe().iter() {
            prop_assert_eq!(values.value(v).unwrap().to_u64(), Some(1));
        }
    }
}

// ------------------------------------------ d-tree kernel differential tests

/// Sparse, non-contiguous variable ids: `Var(1000 + 7k)`.
fn sparse_var(k: usize) -> Var {
    Var(1000 + 7 * k as u32)
}

/// Clause lists of 1–10 clauses of width 1–4, as variable indices that
/// [`sparse_dnf`] reduces modulo the universe size.
fn clause_lists() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..130, 1..=4), 1..=10)
}

/// A positive DNF over the universe of `n` sparse variables, so dense rows
/// span one, two or three words for `n` up to 130. The first clause is
/// repeated and extended by one variable, so every function has a duplicate
/// and an absorbed clause; universe variables no clause uses are common.
fn sparse_dnf(n: usize, clauses: Vec<Vec<usize>>) -> Dnf {
    let mut clauses: Vec<Vec<Var>> =
        clauses.into_iter().map(|c| c.into_iter().map(|k| sparse_var(k % n)).collect()).collect();
    let mut absorbed = clauses[0].clone();
    clauses.push(absorbed.clone());
    absorbed.push(sparse_var((absorbed.len() * 31) % n));
    clauses.push(absorbed);
    Dnf::from_clauses_with_universe(clauses, (0..n).map(sparse_var).collect())
}

/// Brute-force critical-set counts by size, `result[x][k] = #kC(x)`, from a
/// truth table over at most 16 variables.
fn brute_critical_counts(phi: &Dnf) -> Vec<(Var, Vec<u64>)> {
    let vars = phi.universe().as_slice();
    let n = vars.len();
    let masks: Vec<u32> = phi
        .clauses()
        .iter()
        .map(|c| c.iter().map(|v| 1u32 << vars.binary_search(&v).unwrap()).sum())
        .collect();
    let table: Vec<bool> =
        (0u32..1 << n).map(|world| masks.iter().any(|&m| m & !world == 0)).collect();
    (0..n)
        .map(|i| {
            let mut counts = vec![0u64; n];
            for world in (0u32..1 << n).filter(|w| w & (1 << i) == 0) {
                if !table[world as usize] && table[(world | 1 << i) as usize] {
                    counts[world.count_ones() as usize] += 1;
                }
            }
            (vars[i], counts)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ExaBan's Banzhaf values and Shapley values over the dense d-tree
    /// kernel equal brute force, on sparse multi-word universes.
    #[test]
    fn dense_kernel_values_match_brute_force(n in 1usize..=16, clauses in clause_lists()) {
        let phi = sparse_dnf(n, clauses);
        {
            let tree = DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
            let banzhaf = exaban_all(&tree);
            prop_assert_eq!(banzhaf.model_count.clone(), phi.brute_force_model_count());
            let shapley = shapley_all(&tree);
            let n = phi.num_vars() as u64;
            for (x, counts) in brute_critical_counts(&phi) {
                let total: u64 = counts.iter().sum();
                prop_assert_eq!(banzhaf.value(x).unwrap().to_u64(), Some(total));
                let mut numer = Natural::zero();
                for (k, &c) in counts.iter().enumerate() {
                    let k = k as u64;
                    let coeff = Natural::factorial(k).mul_ref(&Natural::factorial(n - 1 - k));
                    numer += &coeff.mul_u64(c);
                }
                prop_assert_eq!(&shapley[&x].numer, &numer);
                prop_assert_eq!(&shapley[&x].denom, &Natural::factorial(n));
            }
        }
    }

    /// One-shot compilation and incremental expansion to completion build the
    /// same tree up to node order: equal values, expansion and node counts,
    /// and shape statistics.
    #[test]
    fn compile_full_agrees_with_incremental_expansion(n in 1usize..=130, clauses in clause_lists()) {
        let phi = sparse_dnf(n, clauses);
        let full = DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        let mut stepped = DTree::from_leaf(phi.clone());
        while stepped.expand_largest_leaf(PivotHeuristic::MostFrequent).is_some() {}
        prop_assert_eq!(full.expansions(), stepped.expansions());
        prop_assert_eq!(full.num_nodes(), stepped.num_nodes());
        prop_assert_eq!(full.stats(), stepped.stats());
        let (a, b) = (exaban_all(&full), exaban_all(&stepped));
        prop_assert_eq!(&a.model_count, &b.model_count);
        prop_assert_eq!(&a.values, &b.values);
        prop_assert_eq!(a.values.len(), phi.num_vars());
    }
}

/// A DNF whose clauses share no variable: clause `i` has width
/// `widths[i]`, and `unused` more universe variables occur in no clause. The
/// universe is `total` sparse variables, assigned to clauses in an order
/// shuffled by `seed`, so clause and unused variables interleave.
fn independent_dnf(widths: &[usize], unused: usize, seed: u64) -> Dnf {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let total = widths.iter().sum::<usize>() + unused;
    let mut vars: Vec<Var> = (0..total).map(sparse_var).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..total).rev() {
        vars.swap(i, rng.gen_range(0..=i));
    }
    let mut rest = vars.as_slice();
    let clauses: Vec<Vec<Var>> = widths
        .iter()
        .map(|&w| {
            let (clause, tail) = rest.split_at(w);
            rest = tail;
            clause.to_vec()
        })
        .collect();
    Dnf::from_clauses_with_universe(clauses, vars.into_iter().collect())
}

/// ExaBan over the compiled d-tree of `phi`.
fn compiled_exaban(phi: &Dnf) -> BanzhafResult {
    exaban_all(
        &DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
            .unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The closed form equals brute force and compiled ExaBan on random
    /// independent-clause DNFs with unused universe variables, and refuses
    /// the same DNF once one more clause shares a variable with it.
    #[test]
    fn closed_form_matches_brute_force_and_compiled_exaban(
        widths in proptest::collection::vec(1usize..=3, 1..=4),
        unused in 0usize..=3,
        seed in any::<u64>(),
    ) {
        let phi = independent_dnf(&widths, unused, seed);
        let closed = exaban_closed_form(&phi).expect("clauses share no variable");
        prop_assert_eq!(&closed.model_count, &phi.brute_force_model_count());
        prop_assert_eq!(closed.values.len(), phi.num_vars());
        for x in phi.universe().iter() {
            prop_assert_eq!(Int::from(closed.values[&x].clone()), phi.brute_force_banzhaf(x));
        }
        let compiled = compiled_exaban(&phi);
        prop_assert_eq!(&closed.model_count, &compiled.model_count);
        prop_assert_eq!(&closed.values, &compiled.values);

        let first = phi.clauses()[0].vars()[0];
        let fresh = sparse_var(phi.num_vars());
        let shared = Dnf::from_clauses(phi.clauses().iter().map(|c| c.vars().to_vec()).chain([vec![first, fresh]]));
        prop_assert!(exaban_closed_form(&shared).is_none());
    }

    /// Past 64 variables the counts span several limbs: the closed form
    /// still equals compiled ExaBan, value for value.
    #[test]
    fn closed_form_matches_compiled_exaban_past_64_variables(
        widths in proptest::collection::vec(1usize..=12, 1..=12),
        extra in 0usize..=8,
        seed in any::<u64>(),
    ) {
        let unused = extra + 65usize.saturating_sub(widths.iter().sum());
        let phi = independent_dnf(&widths, unused, seed);
        prop_assert!(phi.num_vars() > 64);
        let closed = exaban_closed_form(&phi).expect("clauses share no variable");
        let compiled = compiled_exaban(&phi);
        prop_assert_eq!(&closed.model_count, &compiled.model_count);
        prop_assert_eq!(&closed.values, &compiled.values);
    }
}

/// Pins the d-tree shape of eight seeded hard-tail-sized lineages, recorded
/// before the dense kernel replaced the `Dnf`-based compiler: expansion
/// steps, arena nodes and the model count must not move.
#[test]
fn golden_dtree_shapes() {
    // (seed, num_vars, num_clauses, expansions, nodes, model count)
    let golden: [(u64, usize, usize, u64, usize, &str); 8] = [
        (1, 40, 30, 2083, 7040, "16683545288"),
        (2, 45, 32, 850, 2842, "268914627328"),
        (3, 50, 35, 4117, 13511, "8482246328168"),
        (4, 55, 37, 14562, 43505, "278285453650800"),
        (5, 60, 40, 7505, 24257, "558204089248208"),
        (6, 42, 31, 2091, 6940, "132586698304"),
        (7, 48, 34, 2539, 7986, "542026636768"),
        (8, 58, 38, 6311, 19911, "556371674747088"),
    ];
    for (seed, num_vars, num_clauses, expansions, nodes, count) in golden {
        let shape = LineageShape { num_vars, num_clauses, min_width: 2, max_width: 4, skew: 0.5 };
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let phi = LineageGenerator::new(shape).generate(&mut rng);
        let tree =
            DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        assert_eq!((tree.expansions(), tree.num_nodes()), (expansions, nodes), "seed {seed}");
        assert_eq!(exaban_all(&tree).model_count.to_string(), count, "seed {seed}");
    }
}

// ------------------------------------------------ differential join tests

use banzhaf_repro::query::{delta_groundings, Atom, Comparison, ConjunctiveQuery, Selection, Term};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};

/// Values are drawn from `0..DOMAIN`, so joins and duplicates are frequent.
const DOMAIN: i64 = 3;

/// A random evaluation case: a small database and a union of conjunctive
/// queries over it.
#[derive(Debug)]
struct JoinCase {
    db: Database,
    query: UnionQuery,
    /// The database's relations with their arities.
    schema: Vec<(String, usize)>,
}

/// Strategy generating [`JoinCase`]s: 2–3 relations of arity 1–3 holding
/// endogenous, exogenous and duplicate tuples, queried by 1–2 disjuncts of
/// 1–3 atoms with constants, repeated variables, selections (some on the
/// variable `V`, which no atom binds), atoms over an unknown relation and
/// atoms whose arity differs from their relation's.
struct JoinCases;

fn random_tuple(rng: &mut StdRng, arity: usize) -> Vec<Value> {
    (0..arity).map(|_| Value::from(rng.gen_range(0..DOMAIN))).collect()
}

fn random_cq(rng: &mut StdRng, schema: &[(String, usize)], head_arity: usize) -> ConjunctiveQuery {
    const VARS: [&str; 3] = ["X", "Y", "Z"];
    let mut atoms = Vec::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let (relation, arity) = if rng.gen_bool(0.1) {
            ("Missing".to_owned(), rng.gen_range(1..=2usize))
        } else {
            let (name, arity) = &schema[rng.gen_range(0..schema.len())];
            let arity = if rng.gen_bool(0.1) { arity + 1 } else { *arity };
            (name.clone(), arity)
        };
        let terms = (0..arity)
            .map(|_| {
                if rng.gen_bool(0.25) {
                    Term::constant(rng.gen_range(0..DOMAIN))
                } else {
                    Term::var(VARS[rng.gen_range(0..VARS.len())])
                }
            })
            .collect();
        atoms.push(Atom::new(relation, terms));
    }
    if atoms.iter().all(|a| a.variables().next().is_none()) {
        atoms[0].terms[0] = Term::var("X");
    }
    let cq = ConjunctiveQuery {
        name: "Q".into(),
        head: Vec::new(),
        aggregate: None,
        atoms,
        selections: Vec::new(),
    };
    let bound = cq.variables();
    let head = (0..head_arity).map(|_| bound[rng.gen_range(0..bound.len())].clone()).collect();
    let comparisons = [
        Comparison::Lt,
        Comparison::Le,
        Comparison::Eq,
        Comparison::Ne,
        Comparison::Ge,
        Comparison::Gt,
    ];
    let selections = (0..rng.gen_range(0..=2usize))
        .map(|_| Selection {
            variable: ["X", "Y", "Z", "V"][rng.gen_range(0..4usize)].into(),
            comparison: comparisons[rng.gen_range(0..comparisons.len())],
            constant: Value::from(rng.gen_range(0..DOMAIN)),
        })
        .collect();
    ConjunctiveQuery { head, selections, ..cq }
}

impl Strategy for JoinCases {
    type Value = JoinCase;

    fn generate(&self, rng: &mut StdRng) -> JoinCase {
        let mut db = Database::new();
        let schema: Vec<(String, usize)> = (0..rng.gen_range(2..=3usize))
            .map(|i| (format!("R{i}"), rng.gen_range(1..=3usize)))
            .collect();
        for (name, arity) in &schema {
            db.add_relation(name.as_str(), *arity);
            let mut tuples: Vec<Vec<Value>> = Vec::new();
            for _ in 0..rng.gen_range(0..=6usize) {
                let values = if !tuples.is_empty() && rng.gen_bool(0.2) {
                    tuples[rng.gen_range(0..tuples.len())].clone()
                } else {
                    random_tuple(rng, *arity)
                };
                if rng.gen_bool(0.7) {
                    db.insert_endogenous(name, values.clone()).unwrap();
                } else {
                    db.insert_exogenous(name, values.clone()).unwrap();
                }
                tuples.push(values);
            }
        }
        let head_arity = rng.gen_range(0..=2usize);
        let disjuncts =
            (0..rng.gen_range(1..=2usize)).map(|_| random_cq(rng, &schema, head_arity)).collect();
        JoinCase { db, query: UnionQuery { disjuncts }, schema }
    }
}

/// Every grounding of `cq` over `db` by brute force: each combination of
/// one stored tuple per atom, kept when the terms agree with it and every
/// selection holds.
fn oracle_groundings(cq: &ConjunctiveQuery, db: &Database) -> Vec<(Vec<Value>, Vec<Var>)> {
    let candidates: Vec<Vec<(&[Value], Provenance)>> = cq
        .atoms
        .iter()
        .map(|a| db.relation(&a.relation).map(|r| r.tuples().collect()).unwrap_or_default())
        .collect();
    let combinations: usize = candidates.iter().map(Vec::len).product();
    let mut out = Vec::new();
    'combination: for n in 0..combinations {
        let mut rest = n;
        let mut binding: HashMap<&str, &Value> = HashMap::new();
        let mut clause = Vec::new();
        for (atom, tuples) in cq.atoms.iter().zip(&candidates) {
            let (values, provenance) = tuples[rest % tuples.len()];
            rest /= tuples.len();
            if values.len() != atom.terms.len() {
                continue 'combination;
            }
            for (term, value) in atom.terms.iter().zip(values) {
                let agrees = match term {
                    Term::Constant(c) => c == value,
                    Term::Variable(v) => *binding.entry(v.as_str()).or_insert(value) == value,
                };
                if !agrees {
                    continue 'combination;
                }
            }
            clause.extend(provenance.fact_id().map(|id| Var(id.0)));
        }
        let selected = cq.selections.iter().all(|s| {
            binding.get(s.variable.as_str()).is_some_and(|v| s.comparison.evaluate(v, &s.constant))
        });
        if selected {
            out.push((cq.head.iter().map(|v| binding[v.as_str()].clone()).collect(), clause));
        }
    }
    out
}

/// The per-answer lineages the oracle's groundings induce, by tuple.
fn oracle_answers(query: &UnionQuery, db: &Database) -> Vec<(Vec<Value>, Dnf)> {
    let mut clauses: BTreeMap<Vec<Value>, Vec<Vec<Var>>> = BTreeMap::new();
    for cq in &query.disjuncts {
        for (tuple, clause) in oracle_groundings(cq, db) {
            clauses.entry(tuple).or_default().push(clause);
        }
    }
    clauses.into_iter().map(|(tuple, clauses)| (tuple, Dnf::from_clauses(clauses))).collect()
}

/// The query's per-answer lineages as computed by [`evaluate`].
fn evaluated(query: &UnionQuery, db: &Database) -> Vec<(Vec<Value>, Dnf)> {
    evaluate(query, db).into_answers().into_iter().map(|a| (a.tuple, a.lineage)).collect()
}

/// The aggregate answers the oracle's groundings induce, with the error
/// [`evaluate_aggregate`] must raise for a grounding over exogenous facts
/// only. `query` must carry its aggregate on every disjunct.
fn oracle_aggregate(
    query: &UnionQuery,
    db: &Database,
    kind: AggregateKind,
) -> Result<Vec<(Vec<Value>, WeightedDnf)>, AggregateError> {
    let mut weighted: BTreeMap<Vec<Value>, Vec<(Vec<Var>, Rational)>> = BTreeMap::new();
    for cq in &query.disjuncts {
        let input = cq.aggregate.as_ref().and_then(|a| a.input.clone());
        let mut probe = cq.clone();
        probe.head.extend(input.clone());
        for (mut tuple, clause) in oracle_groundings(&probe, db) {
            if clause.is_empty() {
                return Err(AggregateError::UnconditionalGrounding);
            }
            let weight = match input {
                Some(_) => Rational::from(tuple.pop().unwrap().as_int().unwrap()),
                None => Rational::one(),
            };
            weighted.entry(tuple).or_default().push((clause, weight));
        }
    }
    Ok(weighted
        .into_iter()
        .map(|(tuple, pairs)| (tuple, WeightedDnf::from_weighted_clauses(kind, pairs)))
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The planned, indexed join finds exactly the cross-product oracle's
    /// groundings.
    #[test]
    fn evaluate_matches_cross_product_oracle(case in JoinCases) {
        prop_assert_eq!(evaluated(&case.query, &case.db), oracle_answers(&case.query, &case.db));
    }

    /// COUNT and SUM evaluation agree with the oracle, errors included.
    #[test]
    fn evaluate_aggregate_matches_cross_product_oracle(case in JoinCases, sum in any::<bool>()) {
        let kind = if sum { AggregateKind::Sum } else { AggregateKind::Count };
        let mut query = case.query.clone();
        for (i, cq) in query.disjuncts.iter_mut().enumerate() {
            let variables = cq.variables();
            let input = sum.then(|| variables[i % variables.len()].clone());
            cq.aggregate = Some(AggregateSpec { kind, input });
        }
        let have = evaluate_aggregate(&query, &case.db)
            .map(|r| r.into_answers().into_iter().map(|a| (a.tuple, a.lineage)).collect::<Vec<_>>());
        prop_assert_eq!(have, oracle_aggregate(&query, &case.db, kind));
    }

    /// After an insert, every answer's lineage is the disjunction of its old
    /// lineage and the inserted fact's delta clauses, each of which uses the
    /// fact.
    #[test]
    fn delta_groundings_extend_old_lineages(case in JoinCases, seed in any::<u64>()) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let JoinCase { mut db, query, schema } = case;
        let before = evaluated(&query, &db);
        let (relation, arity) = &schema[rng.gen_range(0..schema.len())];
        let id = db.insert_endogenous(relation, random_tuple(&mut rng, *arity)).unwrap();
        let mut delta: BTreeMap<Vec<Value>, Vec<Vec<Var>>> = BTreeMap::new();
        for (tuple, clause) in delta_groundings(&query, &db, id) {
            prop_assert!(clause.contains(&Var(id.0)));
            delta.entry(tuple).or_default().push(clause);
        }
        let mut merged: BTreeMap<Vec<Value>, Dnf> = before.into_iter().collect();
        for (tuple, clauses) in delta {
            let delta = Dnf::from_clauses(clauses);
            let lineage = match merged.remove(&tuple) {
                Some(old) => old.or(&delta),
                None => delta,
            };
            merged.insert(tuple, lineage);
        }
        let merged: Vec<(Vec<Value>, Dnf)> = merged.into_iter().collect();
        prop_assert_eq!(merged, evaluated(&query, &db));
    }
}
