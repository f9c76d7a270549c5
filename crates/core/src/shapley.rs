//! Exact Shapley values and per-size critical-set counts over complete
//! d-trees (App. D of the paper).
//!
//! Both the Banzhaf and the Shapley value of a fact `f` can be written in
//! terms of the number `#kC(f)` of *critical sets* of each size `k` — sets
//! `Y ⊆ Dn∖{f}` such that adding `f` flips the query from false to true
//! (Eq. (16)/(17)):
//!
//! ```text
//!   Banzhaf(f) = Σ_k #kC(f)
//!   Shapley(f) = Σ_k  k!·(n−1−k)!/n!  ·  #kC(f)
//! ```
//!
//! Over a complete d-tree, `#kC` is computed exactly like ExaBan's
//! all-variables pass, except that scalars become *size-stratified* count
//! vectors and products become polynomial convolutions.

use banzhaf_arith::{Int, Natural};
use banzhaf_boolean::Var;
use banzhaf_dtree::{DTree, Node, NodeId, OpKind};
use std::cmp::Ordering;
use std::collections::HashMap;

/// An exact Shapley value represented as the rational `numer / denom` with
/// `denom = n!`.
#[derive(Clone, Debug)]
pub struct ShapleyValue {
    /// Numerator `Σ_k k!(n−1−k)!·#kC`.
    pub numer: Natural,
    /// Denominator `n!`.
    pub denom: Natural,
}

impl ShapleyValue {
    /// Lossy conversion to `f64` for reporting.
    pub fn to_f64(&self) -> f64 {
        if self.denom.is_zero() {
            0.0
        } else {
            self.numer.to_f64() / self.denom.to_f64()
        }
    }
}

impl PartialEq for ShapleyValue {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ShapleyValue {}

impl PartialOrd for ShapleyValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ShapleyValue {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d with positive denominators: compare a·d vs c·b.
        self.numer.mul_ref(&other.denom).cmp(&other.numer.mul_ref(&self.denom))
    }
}

/// Convolution of two count-by-size vectors.
fn convolve(a: &[Natural], b: &[Natural]) -> Vec<Natural> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![Natural::zero(); a.len() + b.len() - 1];
    for (i, ai) in a.iter().enumerate() {
        if ai.is_zero() {
            continue;
        }
        for (j, bj) in b.iter().enumerate() {
            if bj.is_zero() {
                continue;
            }
            out[i + j] += &ai.mul_ref(bj);
        }
    }
    out
}

/// The vector of binomial coefficients `C(n, 0..=n)` — the count-by-size
/// vector of the constant-true function over `n` variables.
fn binomial_row(n: usize) -> Vec<Natural> {
    (0..=n as u64).map(|k| Natural::binomial(n as u64, k)).collect()
}

/// Count-by-size vectors (`c[k]` = number of models with exactly `k` true
/// variables) for every node of a complete d-tree.
fn model_counts_by_size(tree: &DTree) -> Vec<Vec<Natural>> {
    let mut counts: Vec<Vec<Natural>> = vec![Vec::new(); tree.num_nodes()];
    // Descending ids visit children before parents.
    for i in (0..tree.num_nodes()).rev() {
        let c = match tree.node(NodeId(i as u32)) {
            Node::Const { value: false, num_vars } => {
                vec![Natural::zero(); *num_vars as usize + 1]
            }
            Node::Const { value: true, num_vars } => binomial_row(*num_vars as usize),
            Node::PosLit(_) => vec![Natural::zero(), Natural::one()],
            Node::NegLit(_) => vec![Natural::one(), Natural::zero()],
            Node::Leaf(_) => panic!("complete d-tree required"),
            Node::Op { op, children, num_vars } => match op {
                OpKind::IndependentAnd => {
                    let mut acc = vec![Natural::one()];
                    for ch in children.ids() {
                        acc = convolve(&acc, &counts[ch.index()]);
                    }
                    acc
                }
                OpKind::IndependentOr => {
                    // Convolve the non-model vectors, then complement.
                    let mut acc = vec![Natural::one()];
                    for ch in children.ids() {
                        let nv = tree.node(ch).num_vars();
                        let row = binomial_row(nv);
                        let nm: Vec<Natural> = row
                            .iter()
                            .zip(counts[ch.index()].iter())
                            .map(|(total, c)| total - c)
                            .collect();
                        acc = convolve(&acc, &nm);
                    }
                    binomial_row(*num_vars as usize)
                        .iter()
                        .zip(acc.iter())
                        .map(|(total, nm)| total - nm)
                        .collect()
                }
                OpKind::Exclusive => {
                    let mut acc = vec![Natural::zero(); *num_vars as usize + 1];
                    for ch in children.ids() {
                        for (k, v) in counts[ch.index()].iter().enumerate() {
                            acc[k] += v;
                        }
                    }
                    acc
                }
            },
        };
        counts[i] = c;
    }
    counts
}

/// Computes, for every variable, the vector of critical-set counts by size:
/// `result[x][k] = #kC(x)` — the number of sets `Y` of size `k` not containing
/// `x` such that `φ[Y] = 0` and `φ[Y ∪ {x}] = 1`.
///
/// # Panics
/// Panics if the d-tree is not complete.
pub fn critical_counts_all(tree: &DTree) -> HashMap<Var, Vec<Natural>> {
    let by_size = model_counts_by_size(tree);
    let n = tree.num_vars();

    // Top-down context propagation: the context of a node is the
    // count-by-size vector of the "environment" choices outside the subtree
    // that keep a critical set critical.
    let mut contexts: Vec<Vec<Natural>> = vec![Vec::new(); tree.num_nodes()];
    contexts[tree.root().index()] = vec![Natural::one()];

    // Per universe variable; variables that only occur in constant leaves
    // keep all-zero counts.
    let universe = tree.universe().as_slice();
    let mut acc: Vec<Vec<Int>> = vec![vec![Int::zero(); n]; universe.len()];
    let add_contribution = |acc: &mut [Vec<Int>], v: Var, ctx: &[Natural], negate: bool| {
        let entry = &mut acc[universe.binary_search(&v).expect("literal in the tree's universe")];
        for (k, c) in ctx.iter().enumerate() {
            if k < entry.len() && !c.is_zero() {
                let delta = Int::from(c.clone());
                if negate {
                    entry[k] -= &delta;
                } else {
                    entry[k] += &delta;
                }
            }
        }
    };

    // Ascending ids visit parents before children.
    for i in 0..tree.num_nodes() {
        let ctx = std::mem::take(&mut contexts[i]);
        match tree.node(NodeId(i as u32)) {
            Node::Const { .. } => {}
            Node::PosLit(v) => add_contribution(&mut acc, *v, &ctx, false),
            Node::NegLit(v) => add_contribution(&mut acc, *v, &ctx, true),
            Node::Leaf(_) => panic!("complete d-tree required"),
            Node::Op { op, children, .. } => {
                match op {
                    OpKind::Exclusive => {
                        for ch in children.ids() {
                            contexts[ch.index()].clone_from(&ctx);
                        }
                    }
                    OpKind::IndependentAnd | OpKind::IndependentOr => {
                        // The sibling factor vectors: model counts by size (⊙)
                        // or non-model counts by size (⊗).
                        let factors: Vec<Vec<Natural>> = children
                            .ids()
                            .map(|ch| sibling_factor(tree, ch, &by_size, *op))
                            .collect();
                        let k = children.len();
                        let mut prefix: Vec<Vec<Natural>> = Vec::with_capacity(k + 1);
                        prefix.push(vec![Natural::one()]);
                        for f in &factors {
                            let last = prefix.last().expect("non-empty");
                            prefix.push(convolve(last, f));
                        }
                        let mut suffix: Vec<Vec<Natural>> = vec![vec![Natural::one()]; k + 1];
                        for i in (0..k).rev() {
                            suffix[i] = convolve(&suffix[i + 1], &factors[i]);
                        }
                        for (i, ch) in children.ids().enumerate() {
                            let siblings = convolve(&prefix[i], &suffix[i + 1]);
                            contexts[ch.index()] = convolve(&ctx, &siblings);
                        }
                    }
                }
            }
        }
    }

    universe
        .iter()
        .zip(acc)
        .map(|(&v, counts)| {
            let counts: Vec<Natural> = counts
                .into_iter()
                .map(|c| {
                    debug_assert!(
                        !c.is_negative(),
                        "critical counts of positive lineage are non-negative"
                    );
                    if c.is_negative() {
                        Natural::zero()
                    } else {
                        c.into_magnitude()
                    }
                })
                .collect();
            (v, counts)
        })
        .collect()
}

fn sibling_factor(
    tree: &DTree,
    child: NodeId,
    by_size: &[Vec<Natural>],
    op: OpKind,
) -> Vec<Natural> {
    match op {
        OpKind::IndependentAnd => by_size[child.index()].clone(),
        _ => {
            let nv = tree.node(child).num_vars();
            binomial_row(nv)
                .iter()
                .zip(by_size[child.index()].iter())
                .map(|(total, c)| total - c)
                .collect()
        }
    }
}

/// Exact Shapley values of all variables of a complete d-tree (Eq. (17)).
///
/// Also returns nothing extra: use [`critical_counts_all`] directly for the
/// per-size breakdown (the App. D table) and sum it for the Banzhaf value.
pub fn shapley_all(tree: &DTree) -> HashMap<Var, ShapleyValue> {
    let critical = critical_counts_all(tree);
    let n = tree.num_vars() as u64;
    let denom = Natural::factorial(n);
    // Precompute the coefficients k!·(n−1−k)! for k = 0..n−1.
    let coeffs: Vec<Natural> =
        (0..n).map(|k| Natural::factorial(k).mul_ref(&Natural::factorial(n - 1 - k))).collect();
    critical
        .into_iter()
        .map(|(v, counts)| {
            let mut numer = Natural::zero();
            for (k, c) in counts.iter().enumerate() {
                if !c.is_zero() {
                    numer += &coeffs[k].mul_ref(c);
                }
            }
            (v, ShapleyValue { numer, denom: denom.clone() })
        })
        .collect()
}

/// Sanity helper: the model count by size at the root, summed, must equal the
/// scalar model count.
#[cfg(test)]
pub(crate) fn total_from_sizes(tree: &DTree) -> Natural {
    let by_size = model_counts_by_size(tree);
    let mut total = Natural::zero();
    for c in &by_size[tree.root().index()] {
        total += c;
    }
    let scalar = crate::exaban::model_counts(tree).get(tree, tree.root()).into_owned();
    debug_assert_eq!(total, scalar);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exaban::exaban_all;
    use banzhaf_boolean::Dnf;
    use banzhaf_dtree::{Budget, PivotHeuristic};

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn compile(phi: Dnf) -> DTree {
        DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap()
    }

    /// Brute-force Shapley value via the definition (Eq. (15)) for testing.
    fn brute_shapley(phi: &Dnf, x: Var) -> f64 {
        let others: Vec<Var> = phi.universe().iter().filter(|&u| u != x).collect();
        let n = phi.num_vars() as f64;
        let mut total = 0.0;
        for mask in 0u64..(1 << others.len()) {
            let set: Vec<Var> = others
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &u)| u)
                .collect();
            let size = set.len() as f64;
            let without = banzhaf_boolean::Assignment::from_true_vars(set.clone());
            let with = without.with(x);
            let delta = (phi.evaluate(&with) as i64 - phi.evaluate(&without) as i64) as f64;
            if delta != 0.0 {
                // k!(n-k-1)!/n!
                let coeff = factorial(size) * factorial(n - size - 1.0) / factorial(n);
                total += coeff * delta;
            }
        }
        total
    }

    fn factorial(x: f64) -> f64 {
        if x <= 1.0 {
            1.0
        } else {
            x * factorial(x - 1.0)
        }
    }

    #[test]
    fn critical_counts_sum_to_banzhaf() {
        let functions = vec![
            Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]),
            Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(2), v(3)]]),
            Dnf::from_clauses(vec![vec![v(0)], vec![v(1), v(2)], vec![v(3), v(4)]]),
        ];
        for phi in functions {
            let tree = compile(phi.clone());
            let exact = exaban_all(&tree);
            let critical = critical_counts_all(&tree);
            for x in phi.universe().iter() {
                let mut total = Natural::zero();
                for c in &critical[&x] {
                    total += c;
                }
                assert_eq!(&total, exact.value(x).unwrap(), "{phi} {x}");
            }
        }
    }

    #[test]
    fn shapley_matches_brute_force() {
        let functions = vec![
            Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]),
            Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(2), v(0)]]),
        ];
        for phi in functions {
            let tree = compile(phi.clone());
            let shapley = shapley_all(&tree);
            for x in phi.universe().iter() {
                let expected = brute_shapley(&phi, x);
                let got = shapley[&x].to_f64();
                assert!((expected - got).abs() < 1e-9, "{phi} {x}: {expected} vs {got}");
            }
        }
    }

    #[test]
    fn shapley_efficiency_axiom() {
        // The Shapley values of all players sum to φ(full) − φ(empty) = 1 for
        // a satisfiable, non-tautological positive function.
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(2)]]);
        let tree = compile(phi);
        let shapley = shapley_all(&tree);
        let total: f64 = shapley.values().map(ShapleyValue::to_f64).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn size_stratified_counts_are_consistent() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(3)]]);
        let tree = compile(phi.clone());
        assert_eq!(total_from_sizes(&tree), phi.brute_force_model_count());
    }

    #[test]
    fn banzhaf_and_shapley_rankings_can_differ() {
        // Scaled-down version of the App. D example: Q() :- R(x),S(x,y),T(x,z)
        // with asymmetric fan-outs. The full 18-fact example is exercised in
        // the integration tests and the `app_d` experiment.
        let phi = Dnf::from_clauses(vec![
            // R(a1) joins with 2 S-facts and 1 T-fact.
            vec![v(0), v(2), v(5)],
            vec![v(0), v(3), v(5)],
            // R(a2) joins with 1 S-fact and 2 T-facts.
            vec![v(1), v(4), v(6)],
            vec![v(1), v(4), v(7)],
        ]);
        let tree = compile(phi.clone());
        let banzhaf = exaban_all(&tree);
        let shapley = shapley_all(&tree);
        // Both measures are positive for both R-facts.
        assert!(banzhaf.value(v(0)).unwrap() > &Natural::zero());
        assert!(shapley[&v(0)].to_f64() > 0.0);
        // By symmetry of this small instance the two R-facts tie under both
        // measures; the inequality direction is exercised on the full App. D
        // database in the integration tests.
        assert_eq!(banzhaf.value(v(0)), banzhaf.value(v(1)));
        assert_eq!(shapley[&v(0)], shapley[&v(1)]);
    }

    #[test]
    fn shapley_value_ordering() {
        let a = ShapleyValue { numer: Natural::from(1u64), denom: Natural::from(3u64) };
        let b = ShapleyValue { numer: Natural::from(2u64), denom: Natural::from(6u64) };
        let c = ShapleyValue { numer: Natural::from(1u64), denom: Natural::from(2u64) };
        assert_eq!(a, b);
        assert!(a < c);
        assert!((a.to_f64() - 1.0 / 3.0).abs() < 1e-12);
    }
}
