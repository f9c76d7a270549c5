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

/// The clauses of a random read-once function over `vars`, each clause
/// extended by `prefix`: either the common literals `X` (a random prefix of
/// `vars`) factored over the rest, or the disjunction of two or more
/// independent parts, nested. A factored rest sometimes gains the empty
/// clause, so that `X` alone is a clause and absorbs the rest's clauses
/// (`x ∨ x∧y`), whose variables then score 0.
fn read_once_clauses(vars: &[Var], prefix: &[Var], rng: &mut impl rand::Rng) -> Vec<Vec<Var>> {
    let with_prefix = |clause: &[Var]| prefix.iter().chain(clause).copied().collect::<Vec<_>>();
    if vars.len() == 1 {
        return vec![with_prefix(vars)];
    }
    if rng.gen_bool(0.5) {
        let (common, rest) = vars.split_at(rng.gen_range(1..=vars.len()));
        let prefix = with_prefix(common);
        if rest.is_empty() {
            return vec![prefix];
        }
        let mut clauses = read_once_parts(rest, 1, &prefix, rng);
        if rng.gen_bool(0.25) {
            clauses.push(prefix);
        }
        clauses
    } else {
        read_once_parts(vars, 2, prefix, rng)
    }
}

/// The clauses of at least `min` (and at most `vars.len()`) independent
/// read-once parts that split `vars` between them.
fn read_once_parts(
    vars: &[Var],
    min: usize,
    prefix: &[Var],
    rng: &mut impl rand::Rng,
) -> Vec<Vec<Var>> {
    let parts = rng.gen_range(min..=vars.len().min(min + 3));
    let mut cuts: Vec<usize> = (1..vars.len()).collect();
    for i in (1..cuts.len()).rev() {
        cuts.swap(i, rng.gen_range(0..=i));
    }
    cuts.truncate(parts - 1);
    cuts.sort_unstable();
    let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([vars.len()]).collect();
    bounds.windows(2).flat_map(|w| read_once_clauses(&vars[w[0]..w[1]], prefix, rng)).collect()
}

/// A random read-once DNF over `used` sparse variables plus `unused` more
/// universe variables in no clause, shuffled by `seed` so that clause and
/// unused variables interleave.
fn read_once_dnf(used: usize, unused: usize, seed: u64) -> Dnf {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vars: Vec<Var> = (0..used + unused).map(sparse_var).collect();
    for i in (1..vars.len()).rev() {
        vars.swap(i, rng.gen_range(0..=i));
    }
    let clauses = read_once_clauses(&vars[..used], &[], &mut rng);
    Dnf::from_clauses_with_universe(clauses, vars.into_iter().collect())
}

/// The read-once pass's answer on `phi`, asserted equal to compiled
/// ExaBan's values and model count over a tree with no ⊕ node.
fn read_once_matching_compiled(phi: &Dnf) -> BanzhafResult {
    let pass = exaban_read_once(phi).unwrap_or_else(|| panic!("refused the read-once {phi}"));
    let tree = DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
        .unwrap();
    assert_eq!(tree.stats().exclusive, 0, "{phi}");
    let compiled = exaban_all(&tree);
    assert_eq!(pass.model_count, compiled.model_count, "{phi}");
    assert_eq!(pass.values, compiled.values, "{phi}");
    pass
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The read-once pass equals brute force, compiled ExaBan and Sig22 on
    /// random read-once DNFs with absorbed clauses and unused universe
    /// variables.
    #[test]
    fn read_once_pass_matches_brute_force_compiled_exaban_and_sig22(
        used in 1usize..=13,
        unused in 0usize..=3,
        seed in any::<u64>(),
    ) {
        let phi = read_once_dnf(used, unused, seed);
        let pass = read_once_matching_compiled(&phi);
        prop_assert_eq!(&pass.model_count, &phi.brute_force_model_count());
        prop_assert_eq!(pass.values.len(), phi.num_vars());
        for x in phi.universe().iter() {
            prop_assert_eq!(Int::from(pass.value(x).unwrap().clone()), phi.brute_force_banzhaf(x));
        }
        let sig = sig22_exact(&phi, &Budget::unlimited()).unwrap();
        prop_assert_eq!(&pass.model_count, &sig.model_count);
        for (x, b) in &pass.values {
            prop_assert_eq!(Some(b), sig.value(*x));
        }
    }

    /// Past 64 variables rows and counts need 128 bits: the pass still
    /// equals compiled ExaBan up to 127 variables, and refuses from 128 on.
    #[test]
    fn read_once_pass_matches_compiled_exaban_past_64_variables(
        used in 40usize..=140,
        unused in 0usize..=30,
        seed in any::<u64>(),
    ) {
        let phi = read_once_dnf(used, unused, seed);
        if phi.num_vars() < 128 {
            read_once_matching_compiled(&phi);
        } else {
            prop_assert!(exaban_read_once(&phi).is_none());
        }
    }

    /// On random DNFs over one to three words of variables, the pass
    /// refuses exactly when the compiled tree has a ⊕ node (or the universe
    /// has 128 or more variables), and otherwise equals compiled ExaBan.
    #[test]
    fn read_once_pass_refuses_exactly_when_compiling_needs_shannon(
        n in 1usize..=130,
        clauses in clause_lists(),
    ) {
        let phi = sparse_dnf(n, clauses);
        let tree = DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        let needs_shannon = tree.stats().exclusive > 0;
        match exaban_read_once(&phi) {
            None => prop_assert!(needs_shannon || phi.num_vars() >= 128, "{}", phi),
            Some(pass) => {
                prop_assert!(!needs_shannon && phi.num_vars() < 128, "{}", phi);
                let compiled = exaban_all(&tree);
                prop_assert_eq!(&pass.model_count, &compiled.model_count);
                prop_assert_eq!(&pass.values, &compiled.values);
            }
        }
    }

    /// Clauses that share no variable (the depth-two case) are read-once;
    /// one more clause joining two of them makes the lineage need a Shannon
    /// step, and the pass refuses it.
    #[test]
    fn closed_form_matches_brute_force_and_compiled_exaban(
        widths in proptest::collection::vec(1usize..=3, 1..=4),
        unused in 0usize..=3,
        seed in any::<u64>(),
    ) {
        let phi = independent_dnf(&widths, unused, seed);
        let pass = read_once_matching_compiled(&phi);
        prop_assert_eq!(&pass.model_count, &phi.brute_force_model_count());
        for x in phi.universe().iter() {
            prop_assert_eq!(Int::from(pass.value(x).unwrap().clone()), phi.brute_force_banzhaf(x));
        }
        let firsts: Vec<Var> = phi.clauses().iter().map(|c| c.vars()[0]).collect();
        if let [first, .., last] = firsts[..] {
            let joined = Dnf::from_clauses(phi.clauses().iter().map(|c| c.vars().to_vec()).chain([vec![first, last]]));
            prop_assert!(exaban_read_once(&joined).is_none());
        }
    }

    /// Independent clauses past 64 variables: the pass equals compiled
    /// ExaBan up to 127 variables and refuses from 128 on.
    #[test]
    fn closed_form_matches_compiled_exaban_past_64_variables(
        widths in proptest::collection::vec(1usize..=12, 1..=12),
        extra in 0usize..=8,
        seed in any::<u64>(),
    ) {
        let unused = extra + 65usize.saturating_sub(widths.iter().sum());
        let phi = independent_dnf(&widths, unused, seed);
        prop_assert!(phi.num_vars() > 64);
        if phi.num_vars() < 128 {
            read_once_matching_compiled(&phi);
        } else {
            prop_assert!(exaban_read_once(&phi).is_none());
        }
    }
}

/// The variables of a list of per-variable values, in list order.
fn vars_of<T>(values: &[(Var, T)]) -> Vec<Var> {
    values.iter().map(|(v, _)| *v).collect()
}

/// `phi` with every variable `v` renamed to `Var(100_000 - v)`: the renaming
/// reverses the variable order, so a map-back that kept the cached order
/// would return the values descending.
fn reversed(phi: &Dnf) -> Dnf {
    let flip = |v: Var| Var(100_000 - v.0);
    Dnf::from_clauses_with_universe(
        phi.clauses().iter().map(|c| c.iter().map(flip).collect::<Vec<_>>()),
        phi.universe().iter().map(flip).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every path returns its values strictly ascending by variable and
    /// covering exactly the lineage's universe (unused variables included):
    /// the read-once pass, compiled ExaBan, Sig22, AdaBan, Monte Carlo, a
    /// renamed cache hit, a hit loaded from a snapshot and an aggregate.
    #[test]
    fn every_path_returns_values_ascending_over_the_universe(
        n in 1usize..=12,
        clauses in clause_lists(),
        used in 1usize..=10,
        unused in 0usize..=3,
        seed in any::<u64>(),
    ) {
        let phi = sparse_dnf(n, clauses);
        let read_once = read_once_dnf(used, unused, seed);
        let unlimited = Budget::unlimited();
        for f in [&phi, &read_once] {
            let universe = f.universe().as_slice().to_vec();
            if let Some(pass) = exaban_read_once(f) {
                prop_assert_eq!(vars_of(&pass.values), universe.clone());
            }
            let tree = DTree::compile_full(f.clone(), PivotHeuristic::MostFrequent, &unlimited).unwrap();
            prop_assert_eq!(vars_of(&exaban_all(&tree).values), universe.clone());
            for algorithm in [Algorithm::ExaBan, Algorithm::Sig22, Algorithm::AdaBan, Algorithm::MonteCarlo] {
                let attribution = EngineConfig::new(algorithm).attributor().attribute(f, &unlimited).unwrap();
                prop_assert_eq!(vars_of(&attribution.values), universe.clone(), "{:?}", algorithm);
            }
        }
        let closed = EngineConfig::default().attributor().closed_form(&read_once);
        prop_assert!(closed.is_some(), "{}", read_once);
        prop_assert_eq!(vars_of(&closed.unwrap().values), read_once.universe().as_slice().to_vec());

        // A lineage that needs Shannon steps reaches the cache; its reversed
        // copy is a renamed hit, in this engine and in one warm-started from
        // its snapshot.
        let cached = if exaban_read_once(&phi).is_none() {
            phi.clone()
        } else {
            Dnf::from_clauses((0..3).map(|k| vec![sparse_var(k), sparse_var(k + 1)]))
        };
        let copy = reversed(&cached);
        let engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        prop_assert!(!session.attribute(&cached).unwrap().stats.cache_hit);
        let hit = session.attribute(&copy).unwrap();
        prop_assert!(hit.stats.cache_hit);
        prop_assert_eq!(vars_of(&hit.values), copy.universe().as_slice().to_vec());
        let path = std::env::temp_dir().join(format!(
            "banzhaf-properties-ascending-{}-{:?}.bzc",
            std::process::id(),
            std::thread::current().id()
        ));
        engine.save_cache(&path).unwrap();
        let warm = Engine::new(
            EngineConfig::default().with_cache_config(CacheConfig::new().with_warm_start(&path)),
        );
        let loaded = warm.session().attribute(&copy).unwrap();
        drop(warm);
        std::fs::remove_file(&path).unwrap();
        prop_assert!(loaded.stats.cache_hit);
        prop_assert_eq!(vars_of(&loaded.values), copy.universe().as_slice().to_vec());

        // An aggregate over the reversed copy's clauses, one weight each.
        let weighted = WeightedDnf::from_weighted_clauses(
            AggregateKind::Sum,
            copy.clauses().iter().enumerate().map(|(i, c)| (c.vars().to_vec(), Rational::from(i as i64 + 1))),
        );
        let aggregate = session.attribute(&weighted).unwrap();
        prop_assert_eq!(vars_of(&aggregate.values), weighted.dnf().universe().as_slice().to_vec());
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

use banzhaf_repro::boolean::canonicalize_tail;
use banzhaf_repro::query::{
    delta_groundings, Answer, Atom, Comparison, ConjunctiveQuery, Selection, Term,
};
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

/// Draws one value of a tuple or constant.
type Draw = fn(&mut StdRng) -> Value;

fn int_value(rng: &mut StdRng) -> Value {
    Value::from(rng.gen_range(0..DOMAIN))
}

/// An int of [`int_value`], or one of three strings (one longer than the
/// eight bytes the key hasher folds at a time).
fn mixed_value(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.3) {
        Value::from(["a", "bb", "a longer string"][rng.gen_range(0..3usize)])
    } else {
        int_value(rng)
    }
}

fn random_tuple(rng: &mut StdRng, arity: usize, draw: Draw) -> Vec<Value> {
    (0..arity).map(|_| draw(rng)).collect()
}

fn random_cq(
    rng: &mut StdRng,
    schema: &[(String, usize)],
    head_arity: usize,
    draw: Draw,
) -> ConjunctiveQuery {
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
                    Term::constant(draw(rng))
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
            constant: draw(rng),
        })
        .collect();
    ConjunctiveQuery { head, selections, ..cq }
}

impl Strategy for JoinCases {
    type Value = JoinCase;

    fn generate(&self, rng: &mut StdRng) -> JoinCase {
        join_case(rng, int_value)
    }
}

/// [`JoinCases`] over int and string values.
struct MixedJoinCases;

impl Strategy for MixedJoinCases {
    type Value = JoinCase;

    fn generate(&self, rng: &mut StdRng) -> JoinCase {
        join_case(rng, mixed_value)
    }
}

fn join_case(rng: &mut StdRng, draw: Draw) -> JoinCase {
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
                random_tuple(rng, *arity, draw)
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
        (0..rng.gen_range(1..=2usize)).map(|_| random_cq(rng, &schema, head_arity, draw)).collect();
    JoinCase { db, query: UnionQuery { disjuncts }, schema }
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
    pairs(evaluate(query, db).into_answers())
}

/// Answers as `(tuple, lineage)` pairs, in the order given.
fn pairs(answers: Vec<Answer>) -> Vec<(Vec<Value>, Dnf)> {
    answers.into_iter().map(|a| (a.tuple, a.lineage)).collect()
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
        let id = db.insert_endogenous(relation, random_tuple(&mut rng, *arity, int_value)).unwrap();
        let mut merged: BTreeMap<Vec<Value>, Dnf> = before.into_iter().collect();
        for delta in delta_groundings(&query, &db, id) {
            prop_assert!(delta.lineage.clauses().iter().all(|c| c.contains(Var(id.0))));
            let lineage = match merged.remove(&delta.tuple) {
                Some(old) => old.or(&delta.lineage),
                None => delta.lineage,
            };
            merged.insert(delta.tuple, lineage);
        }
        let merged: Vec<(Vec<Value>, Dnf)> = merged.into_iter().collect();
        prop_assert_eq!(merged, evaluated(&query, &db));
    }
}

/// Every grounding of `cq` over `db`, found atom by atom: each stored tuple
/// of the next atom's relation that agrees with the bindings so far extends
/// the partial grounding, and the selections are checked on complete ones.
/// The groundings of [`oracle_groundings`] without walking the whole cross
/// product, so it runs on the corpora.
fn nested_loop_groundings(cq: &ConjunctiveQuery, db: &Database) -> Vec<(Vec<Value>, Vec<Var>)> {
    /// Extends the partial grounding by the atom at `depth`.
    fn descend<'a>(
        cq: &'a ConjunctiveQuery,
        db: &'a Database,
        depth: usize,
        binding: &mut Vec<(&'a str, &'a Value)>,
        clause: &mut Vec<Var>,
        out: &mut Vec<(Vec<Value>, Vec<Var>)>,
    ) {
        let bound = |binding: &[(&'a str, &'a Value)], name: &str| {
            binding.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v)
        };
        let Some(atom) = cq.atoms.get(depth) else {
            let selected = cq.selections.iter().all(|s| {
                bound(binding, &s.variable).is_some_and(|v| s.comparison.evaluate(v, &s.constant))
            });
            if selected {
                let tuple = cq.head.iter().map(|h| bound(binding, h).unwrap().clone()).collect();
                out.push((tuple, clause.clone()));
            }
            return;
        };
        let Some(relation) = db.relation(&atom.relation) else { return };
        for (values, provenance) in relation.tuples() {
            let mark = binding.len();
            let mut agrees = values.len() == atom.terms.len();
            for (term, value) in atom.terms.iter().zip(values) {
                agrees &= match term {
                    Term::Constant(c) => c == value,
                    Term::Variable(name) => match bound(binding, name) {
                        Some(earlier) => earlier == value,
                        None => {
                            binding.push((name, value));
                            true
                        }
                    },
                };
                if !agrees {
                    break;
                }
            }
            if agrees {
                let fact = provenance.fact_id().map(|id| Var(id.0));
                clause.extend(fact);
                descend(cq, db, depth + 1, binding, clause, out);
                clause.truncate(clause.len() - usize::from(fact.is_some()));
            }
            binding.truncate(mark);
        }
    }
    let mut out = Vec::new();
    descend(cq, db, 0, &mut Vec::new(), &mut Vec::new(), &mut out);
    out
}

/// On every corpus query, each lineage the evaluator builds equals
/// [`Dnf::from_clauses`] over its answer's groundings.
#[test]
fn corpora_lineages_are_the_dnfs_of_their_groundings() {
    use banzhaf_repro::workloads::{academic_workload, imdb_workload, tpch_workload, DatasetSpec};
    let spec = DatasetSpec::default();
    for workload in [academic_workload(&spec), imdb_workload(&spec), tpch_workload(&spec)] {
        for (name, query) in &workload.queries {
            let mut groundings: BTreeMap<Vec<Value>, Vec<Vec<Var>>> = BTreeMap::new();
            for cq in &query.disjuncts {
                for (tuple, clause) in nested_loop_groundings(cq, &workload.db) {
                    groundings.entry(tuple).or_default().push(clause);
                }
            }
            let want: Answers = groundings
                .into_iter()
                .map(|(tuple, clauses)| (tuple, Dnf::from_clauses(clauses)))
                .collect();
            assert!(!want.is_empty(), "{name} has answers");
            assert_eq!(evaluated(query, &workload.db), want, "{name}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On random queries over int and string values, each lineage the
    /// evaluator builds equals [`Dnf::from_clauses`] over its answer's
    /// groundings. Heads lengthened by `extra` variables (up to four) group
    /// through the evaluator's general tuple order rather than its packed
    /// integer keys, and `mixed` keeps the first disjunct's head shorter
    /// than the others', a union of mixed arities.
    #[test]
    fn evaluated_lineages_are_the_dnfs_of_their_groundings(
        case in MixedJoinCases,
        extra in 0usize..=2,
        mixed in any::<bool>(),
    ) {
        let JoinCase { db, mut query, .. } = case;
        for (i, cq) in query.disjuncts.iter_mut().enumerate() {
            let more = if mixed && i == 0 { 0 } else { extra };
            let bound = cq.variables();
            cq.head.extend(bound.iter().cycle().take(more).cloned());
        }
        prop_assert_eq!(evaluated(&query, &db), oracle_answers(&query, &db));
    }
}

// ------------------------------------ index maintenance under updates

/// One write to a database.
#[derive(Clone, Debug)]
enum Write {
    Endogenous(String, Vec<Value>),
    Exogenous(String, Vec<Value>),
    Delete(FactId),
}

/// A database together with the writes that built it from its empty
/// relations, so that the same facts can be rebuilt into a new database.
#[derive(Clone)]
struct Track {
    db: Database,
    writes: Vec<Write>,
}

impl Track {
    /// The writes that rebuild `db`: its tuples, relation by relation in
    /// `schema` order, which is the order [`join_case`] inserted them in.
    fn of(db: Database, schema: &[(String, usize)]) -> Self {
        let mut writes = Vec::new();
        for (name, _) in schema {
            for (values, provenance) in db.relation(name).unwrap().tuples() {
                writes.push(match provenance {
                    Provenance::Endogenous(_) => Write::Endogenous(name.clone(), values.to_vec()),
                    Provenance::Exogenous => Write::Exogenous(name.clone(), values.to_vec()),
                });
            }
        }
        Track { db, writes }
    }

    /// Applies `write`, returning the id of an inserted endogenous fact.
    fn apply(&mut self, write: Write) -> Option<FactId> {
        let id = apply_write(&mut self.db, &write);
        self.writes.push(write);
        id
    }

    /// The same facts, with the same ids, written into a new database that
    /// has built no index yet.
    fn fresh(&self, schema: &[(String, usize)]) -> Database {
        let mut db = Database::new();
        for (name, arity) in schema {
            db.add_relation(name.as_str(), *arity);
        }
        for write in &self.writes {
            apply_write(&mut db, write);
        }
        db
    }
}

fn apply_write(db: &mut Database, write: &Write) -> Option<FactId> {
    match write {
        Write::Endogenous(relation, values) => {
            Some(db.insert_endogenous(relation, values.clone()).unwrap())
        }
        Write::Exogenous(relation, values) => {
            db.insert_exogenous(relation, values.clone()).unwrap();
            None
        }
        Write::Delete(id) => {
            db.delete_endogenous(*id).unwrap();
            None
        }
    }
}

/// A random write to `db`: an endogenous or exogenous insert (a fifth of
/// them repeating a stored tuple), or the delete of a random live fact.
fn random_write(rng: &mut StdRng, db: &Database, schema: &[(String, usize)]) -> Write {
    let live: Vec<FactId> = db.endogenous_facts().map(|(id, _)| id).collect();
    if !live.is_empty() && rng.gen_bool(0.4) {
        return Write::Delete(live[rng.gen_range(0..live.len())]);
    }
    let (name, arity) = &schema[rng.gen_range(0..schema.len())];
    let stored: Vec<&[Value]> = db.relation(name).unwrap().tuples().map(|(v, _)| v).collect();
    let values = if !stored.is_empty() && rng.gen_bool(0.2) {
        stored[rng.gen_range(0..stored.len())].to_vec()
    } else {
        random_tuple(rng, *arity, mixed_value)
    };
    if rng.gen_bool(0.7) {
        Write::Endogenous(name.clone(), values)
    } else {
        Write::Exogenous(name.clone(), values)
    }
}

/// The delta groundings of fact `id` grouped into per-answer lineages.
fn delta_answers(groundings: Vec<(Vec<Value>, Vec<Var>)>) -> BTreeMap<Vec<Value>, Dnf> {
    let mut clauses: BTreeMap<Vec<Value>, Vec<Vec<Var>>> = BTreeMap::new();
    for (tuple, clause) in groundings {
        clauses.entry(tuple).or_default().push(clause);
    }
    clauses.into_iter().map(|(tuple, clauses)| (tuple, Dnf::from_clauses(clauses))).collect()
}

/// The nested-loop reference of [`delta_groundings`]: the oracle's
/// groundings that use fact `id`.
fn oracle_delta(query: &UnionQuery, db: &Database, id: FactId) -> BTreeMap<Vec<Value>, Dnf> {
    let groundings = query
        .disjuncts
        .iter()
        .flat_map(|cq| oracle_groundings(cq, db))
        .filter(|(_, clause)| clause.contains(&Var(id.0)))
        .collect();
    delta_answers(groundings)
}

/// Checks a maintained database against the same facts freshly written
/// into a new one and against the nested-loop oracle: `evaluate` on the
/// whole query, `delta_groundings` for fact `id` if given.
fn check_track(track: &Track, schema: &[(String, usize)], query: &UnionQuery, id: Option<FactId>) {
    let fresh = track.fresh(schema);
    let have = evaluated(query, &track.db);
    assert_eq!(have, evaluated(query, &fresh), "maintained vs fresh indexes");
    assert_eq!(have, oracle_answers(query, &track.db), "maintained indexes vs the oracle");
    if let Some(id) = id {
        let delta = pairs(delta_groundings(query, &track.db, id));
        assert_eq!(delta, pairs(delta_groundings(query, &fresh, id)), "delta of {id}, vs fresh");
        let oracle: Vec<(Vec<Value>, Dnf)> =
            oracle_delta(query, &track.db, id).into_iter().collect();
        assert_eq!(delta, oracle, "delta of {id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Indexes kept through a random stream of inserts and deletes answer
    /// exactly as indexes built from scratch and as the nested-loop oracle,
    /// after every write, including a relation's last tuple deleted and
    /// re-inserted, and on both sides of a clone written to independently.
    #[test]
    fn maintained_indexes_match_fresh_ones_and_the_oracle(
        case in MixedJoinCases,
        seed in any::<u64>(),
    ) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let JoinCase { db, query, schema } = case;
        let mut tracks = vec![Track::of(db, &schema)];
        // Build every index the query uses before the first write.
        check_track(&tracks[0], &schema, &query, None);
        let fork_at = rng.gen_range(0..8usize);
        for step in 0..12usize {
            if step == fork_at {
                let twin = tracks[0].clone();
                tracks.push(twin);
            }
            let t = rng.gen_range(0..tracks.len());
            let writes = if rng.gen_bool(0.2) {
                // Delete the last tuple of a relation, if endogenous, and
                // re-insert it.
                let (name, _) = &schema[rng.gen_range(0..schema.len())];
                let last = tracks[t].db.relation(name).unwrap().tuples().last();
                match last {
                    Some((values, Provenance::Endogenous(id))) => vec![
                        Write::Delete(id),
                        Write::Endogenous(name.clone(), values.to_vec()),
                    ],
                    _ => vec![random_write(&mut rng, &tracks[t].db, &schema)],
                }
            } else {
                vec![random_write(&mut rng, &tracks[t].db, &schema)]
            };
            for write in writes {
                let inserted = tracks[t].apply(write);
                let live: Vec<FactId> = tracks[t].db.endogenous_facts().map(|(id, _)| id).collect();
                let probe = inserted.or_else(|| live.get(rng.gen_range(0..live.len().max(1))).copied());
                check_track(&tracks[t], &schema, &query, probe);
                // The other side of a clone is untouched by this write.
                for other in tracks.iter().enumerate().filter(|&(i, _)| i != t).map(|(_, tr)| tr) {
                    check_track(other, &schema, &query, None);
                }
            }
        }
    }
}

/// One query's answers with their lineages, as [`evaluated`] lists them.
type Answers = Vec<(Vec<Value>, Dnf)>;

/// Two threads evaluate the queries of a cold database at once, so each
/// index is built under a race: both get the answers of a single-threaded
/// evaluation, and the relation keeps one index per key-position set.
#[test]
fn threads_racing_to_build_an_index_agree() {
    use banzhaf_repro::workloads::{imdb_workload, DatasetSpec};
    let workload = imdb_workload(&DatasetSpec::default());
    use banzhaf_repro::db::Relation;
    // Each relation's indexed key-position sets, sorted.
    let indexes = |db: &Database| -> Vec<Vec<Vec<usize>>> {
        let relations = db.relation_names().into_iter().map(|name| db.relation(name).unwrap());
        let positions = |r: &Relation| -> Vec<Vec<usize>> {
            let mut keys: Vec<Vec<usize>> =
                r.indexes().iter().map(|i| i.positions().to_vec()).collect();
            keys.sort();
            keys
        };
        relations.map(positions).collect()
    };
    // A clone shares the indexes built so far, and the workload's database
    // has none, so every clone of it starts cold.
    assert!(indexes(&workload.db).iter().all(Vec::is_empty));
    let alone = workload.db.clone();
    let expected: Vec<Answers> =
        workload.queries.iter().map(|(_, q)| evaluated(q, &alone)).collect();
    for _ in 0..4 {
        let cold = workload.db.clone();
        let barrier = std::sync::Barrier::new(2);
        let results: Vec<Vec<Answers>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        workload.queries.iter().map(|(_, q)| evaluated(q, &cold)).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results[0], expected);
        assert_eq!(results[1], expected);
        assert_eq!(indexes(&cold), indexes(&alone), "the same indexes, each built once");
    }
}

// ------------------------------------------------ the flat lineage layout

/// A random clause list: 0–8 clauses of 1–5 variables drawn with repeats
/// from a pool of 1–100 sparse ids (so some lists span more than 64
/// variables), listed in any order, some clauses repeated with their
/// variables reversed, now and then an empty clause; plus up to three
/// universe variables that may occur in no clause.
#[derive(Clone, Debug)]
struct ClauseList {
    clauses: Vec<Vec<Var>>,
    extra: Vec<Var>,
}

struct ClauseLists;

impl Strategy for ClauseLists {
    type Value = ClauseList;

    fn generate(&self, rng: &mut StdRng) -> ClauseList {
        let pool = rng.gen_range(1..=100u32);
        let var = |rng: &mut StdRng| Var(3 * rng.gen_range(0..pool) + 1);
        let mut clauses: Vec<Vec<Var>> = Vec::new();
        for _ in 0..rng.gen_range(0..=8usize) {
            let clause = if !clauses.is_empty() && rng.gen_bool(0.2) {
                clauses[rng.gen_range(0..clauses.len())].iter().rev().copied().collect()
            } else if rng.gen_bool(0.05) {
                Vec::new()
            } else {
                (0..rng.gen_range(1..=5usize)).map(|_| var(rng)).collect()
            };
            clauses.push(clause);
        }
        let extra = (0..rng.gen_range(0..=3usize)).map(|_| var(rng)).collect();
        ClauseList { clauses, extra }
    }
}

impl ClauseList {
    /// The clause variables plus the extra ones.
    fn universe(&self) -> VarSet {
        self.clauses.iter().flatten().chain(&self.extra).copied().collect()
    }
}

/// The clause list a DNF keeps for `clauses`, by the definition of its
/// canonical form: each clause sorted and deduplicated, the clauses sorted
/// (as vectors) and deduplicated, and a list holding the empty clause
/// reduced to that clause alone (`true`).
fn canonical(clauses: Vec<Vec<Var>>) -> Vec<Vec<Var>> {
    let mut out: Vec<Vec<Var>> = clauses
        .into_iter()
        .map(|mut c| {
            c.sort_unstable();
            c.dedup();
            c
        })
        .collect();
    out.sort();
    out.dedup();
    if out.first().is_some_and(Vec::is_empty) {
        out.truncate(1);
    }
    out
}

/// A DNF's clauses as vectors, in its order.
fn listed(phi: &Dnf) -> Vec<Vec<Var>> {
    phi.clauses().iter().map(|c| c.vars().to_vec()).collect()
}

/// Checks every layout query of `phi` against the oracle clause list
/// `want` (canonical) over `universe`.
fn check_layout(phi: &Dnf, want: &[Vec<Var>], universe: &VarSet) {
    let truth = want.first().is_some_and(Vec::is_empty);
    prop_assert_eq!(listed(phi), want.to_vec());
    prop_assert_eq!(phi.universe(), universe);
    prop_assert_eq!(phi.clauses().len(), want.len());
    prop_assert_eq!(phi.num_clauses(), if truth { 0 } else { want.len() });
    prop_assert_eq!(phi.size(), want.iter().map(Vec::len).sum::<usize>());
    prop_assert_eq!((phi.is_true(), phi.is_false()), (truth, want.is_empty()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every way of building a DNF keeps the canonical clause list of a
    /// `Vec<Vec<Var>>` oracle that sorts and deduplicates, and conditioning,
    /// disjunction and widening the universe keep it too.
    #[test]
    fn flat_layout_matches_a_sorted_clause_list_oracle(
        a in ClauseLists,
        b in ClauseLists,
        pick in any::<u64>(),
    ) {
        let universe = a.universe();
        let want = canonical(a.clauses.clone());
        let phi = Dnf::from_clauses_with_universe(a.clauses.clone(), universe.clone());
        check_layout(&phi, &want, &universe);
        let used: VarSet = a.clauses.iter().flatten().copied().collect();
        check_layout(&Dnf::from_clauses(a.clauses.clone()), &want, &used);
        // Clause slices come sorted and repeat-free, as `canonicalize_tail`
        // leaves them, but in any order and repeated.
        let sorted: Vec<Vec<Var>> = a
            .clauses
            .iter()
            .map(|c| {
                let mut tail = c.clone();
                canonicalize_tail(&mut tail, 0);
                prop_assert_eq!(&tail, &canonical(vec![c.clone()])[0]);
                tail
            })
            .collect();
        let slices = Dnf::from_clause_slices(sorted.iter().map(Vec::as_slice));
        check_layout(&slices, &want, &used);

        // Conditioning on a universe variable, in a clause when there is one.
        if !universe.is_empty() {
            let v = universe.as_slice()[pick as usize % universe.len()];
            let mut rest = universe.clone();
            rest.remove(v);
            let kept: Vec<Vec<Var>> = want.iter().filter(|c| !c.contains(&v)).cloned().collect();
            check_layout(&phi.condition(v, false), &canonical(kept), &rest);
            let shortened: Vec<Vec<Var>> =
                want.iter().map(|c| c.iter().copied().filter(|&u| u != v).collect()).collect();
            check_layout(&phi.condition(v, true), &canonical(shortened), &rest);
        }

        // Disjunction: the union of the clause lists over the union of the
        // universes.
        let other = Dnf::from_clauses_with_universe(b.clauses.clone(), b.universe());
        let both = canonical(a.clauses.iter().chain(&b.clauses).cloned().collect());
        let joint = universe.union(&b.universe());
        check_layout(&phi.or(&other), &both, &joint);
        check_layout(&other.or(&phi), &both, &joint);

        // Widening the universe keeps the clauses.
        check_layout(&phi.widen_universe(joint.clone()), &want, &joint);
    }
}
