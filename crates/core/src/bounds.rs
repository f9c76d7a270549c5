//! The `bounds` procedure (Fig. 2): lower/upper bounds on Banzhaf values and
//! model counts over partial d-trees.
//!
//! For trivial leaves (constants and literals) the bounds collapse to the
//! exact values; for non-trivial DNF leaves they come from the iDNF
//! constructions of Prop. 12; and inner nodes combine children bounds with
//! interval arithmetic derived from Eq. (4)–(9).

use banzhaf_arith::{Int, Natural};
use banzhaf_boolean::{lower_bound_fn, upper_bound_fn, IdnfCounts, Var};
use banzhaf_dtree::{DTree, Node, NodeId, OpKind, Span};

/// The quadruple of bounds computed per node by the `bounds` procedure:
/// `Lb ≤ Banzhaf(φ, x) ≤ Ub` and `L# ≤ #φ ≤ U#`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundQuad {
    /// Lower bound on the Banzhaf value (signed: negated literals introduced
    /// by Shannon expansion have negative Banzhaf values in their subtree).
    pub banzhaf_lower: Int,
    /// Upper bound on the Banzhaf value.
    pub banzhaf_upper: Int,
    /// Lower bound on the model count.
    pub count_lower: Natural,
    /// Upper bound on the model count.
    pub count_upper: Natural,
}

impl BoundQuad {
    fn exact(banzhaf: Int, count: Natural) -> BoundQuad {
        BoundQuad {
            banzhaf_lower: banzhaf.clone(),
            banzhaf_upper: banzhaf,
            count_lower: count.clone(),
            count_upper: count,
        }
    }

    /// The Banzhaf bounds clamped to naturals (sound for positive lineage,
    /// whose Banzhaf values are non-negative).
    pub fn banzhaf_bounds_clamped(&self) -> (Natural, Natural) {
        let lower = if self.banzhaf_lower.is_negative() {
            Natural::zero()
        } else {
            self.banzhaf_lower.magnitude().clone()
        };
        let upper = if self.banzhaf_upper.is_negative() {
            Natural::zero()
        } else {
            self.banzhaf_upper.magnitude().clone()
        };
        (lower, upper)
    }
}

/// Multiplies a signed Banzhaf interval by a non-negative factor interval,
/// returning the resulting interval. Used for the `⊙` (factor = sibling model
/// counts) and `⊗` (factor = sibling non-model counts) combination rules.
fn mul_interval(banzhaf: (&Int, &Int), factor: (&Natural, &Natural)) -> (Int, Int) {
    let (bl, bu) = banzhaf;
    let (fl, fu) = factor;
    // factor >= 0, so: the minimum is bl*fu when bl < 0, bl*fl otherwise;
    // the maximum is bu*fu when bu > 0, bu*fl otherwise.
    let lower = if bl.is_negative() { bl.mul_natural(fu) } else { bl.mul_natural(fl) };
    let upper = if bu.is_negative() { bu.mul_natural(fl) } else { bu.mul_natural(fu) };
    (lower, upper)
}

/// Computes the bound quadruple for variable `x` over a (possibly partial)
/// d-tree, in one bottom-up pass (Fig. 2 of the paper).
///
/// `use_opt4` selects the tighter leaf bound of optimization (4) in
/// Sec. 3.2.4, which additionally exploits `Banzhaf(φ,x) = #φ − 2·#φ[x:=0]`.
pub fn bounds_for_var(tree: &DTree, x: Var, use_opt4: bool) -> BoundQuad {
    let mut quads: Vec<Option<BoundQuad>> = vec![None; tree.num_nodes()];
    // Descending ids visit children before parents.
    for i in (0..tree.num_nodes()).rev() {
        let quad = match tree.node(NodeId(i as u32)) {
            Node::Const { value: false, .. } => BoundQuad::exact(Int::zero(), Natural::zero()),
            Node::Const { value: true, num_vars } => {
                BoundQuad::exact(Int::zero(), Natural::pow2(*num_vars as usize))
            }
            Node::Leaf(dnf) if !dnf.universe().contains(x) => {
                // The leaf does not mention x: Banzhaf contribution is
                // exactly zero, only the count bounds matter.
                BoundQuad {
                    banzhaf_lower: Int::zero(),
                    banzhaf_upper: Int::zero(),
                    count_lower: lower_bound_fn(dnf).idnf_model_count(),
                    count_upper: upper_bound_fn(dnf).idnf_model_count(),
                }
            }
            Node::Leaf(dnf) => {
                let counts = if use_opt4 {
                    IdnfCounts::for_leaf_opt4(dnf, x)
                } else {
                    IdnfCounts::for_leaf(dnf, x)
                };
                BoundQuad {
                    banzhaf_lower: counts.banzhaf_lower,
                    banzhaf_upper: counts.banzhaf_upper,
                    count_lower: counts.count_lower,
                    count_upper: counts.count_upper,
                }
            }
            Node::PosLit(v) => {
                let b = if *v == x { Int::one() } else { Int::zero() };
                BoundQuad::exact(b, Natural::one())
            }
            Node::NegLit(v) => {
                let b = if *v == x { Int::minus_one() } else { Int::zero() };
                BoundQuad::exact(b, Natural::one())
            }
            Node::Op { op, num_vars, children } => {
                combine(*op, *children, *num_vars as usize, &quads, tree)
            }
        };
        quads[i] = Some(quad);
    }
    quads[tree.root().index()].take().expect("root bounds computed")
}

fn combine(
    op: OpKind,
    children: Span,
    num_vars: usize,
    quads: &[Option<BoundQuad>],
    tree: &DTree,
) -> BoundQuad {
    let child =
        |c: NodeId| quads[c.index()].as_ref().expect("post-order guarantees children first");
    match op {
        OpKind::IndependentAnd => {
            // Counts multiply; the Banzhaf interval of each child is scaled by
            // the product of the siblings' count intervals. Since at most one
            // child mentions x (children are variable-disjoint), summing the
            // scaled intervals keeps exactly that child's contribution.
            let mut count_lower = Natural::one();
            let mut count_upper = Natural::one();
            for c in children.ids() {
                count_lower = count_lower.mul_ref(&child(c).count_lower);
                count_upper = count_upper.mul_ref(&child(c).count_upper);
            }
            let mut banzhaf_lower = Int::zero();
            let mut banzhaf_upper = Int::zero();
            for (i, c) in children.ids().enumerate() {
                let q = child(c);
                if q.banzhaf_lower.is_zero() && q.banzhaf_upper.is_zero() {
                    continue;
                }
                let mut sib_lower = Natural::one();
                let mut sib_upper = Natural::one();
                for (j, s) in children.ids().enumerate() {
                    if j != i {
                        sib_lower = sib_lower.mul_ref(&child(s).count_lower);
                        sib_upper = sib_upper.mul_ref(&child(s).count_upper);
                    }
                }
                let (lo, up) =
                    mul_interval((&q.banzhaf_lower, &q.banzhaf_upper), (&sib_lower, &sib_upper));
                banzhaf_lower += &lo;
                banzhaf_upper += &up;
            }
            BoundQuad { banzhaf_lower, banzhaf_upper, count_lower, count_upper }
        }
        OpKind::IndependentOr => {
            // Non-model counts multiply: # = 2^n − Π (2^{n_i} − #_i).
            let mut nm_lower = Natural::one(); // product of (2^{n_i} − U#_i)
            let mut nm_upper = Natural::one(); // product of (2^{n_i} − L#_i)
            for c in children.ids() {
                let ni = tree.node(c).num_vars();
                let q = child(c);
                nm_lower = nm_lower.mul_ref(&Natural::pow2(ni).saturating_sub(&q.count_upper));
                nm_upper = nm_upper.mul_ref(&Natural::pow2(ni).saturating_sub(&q.count_lower));
            }
            let count_lower = Natural::pow2(num_vars).saturating_sub(&nm_upper);
            let count_upper = Natural::pow2(num_vars).saturating_sub(&nm_lower);
            let mut banzhaf_lower = Int::zero();
            let mut banzhaf_upper = Int::zero();
            for (i, c) in children.ids().enumerate() {
                let q = child(c);
                if q.banzhaf_lower.is_zero() && q.banzhaf_upper.is_zero() {
                    continue;
                }
                // Sibling factor: Π_{j≠i} (2^{n_j} − #_j), bounded below by
                // using the siblings' upper counts and above by their lower
                // counts.
                let mut sib_lower = Natural::one();
                let mut sib_upper = Natural::one();
                for (j, s) in children.ids().enumerate() {
                    if j != i {
                        let nj = tree.node(s).num_vars();
                        let sq = child(s);
                        sib_lower =
                            sib_lower.mul_ref(&Natural::pow2(nj).saturating_sub(&sq.count_upper));
                        sib_upper =
                            sib_upper.mul_ref(&Natural::pow2(nj).saturating_sub(&sq.count_lower));
                    }
                }
                let (lo, up) =
                    mul_interval((&q.banzhaf_lower, &q.banzhaf_upper), (&sib_lower, &sib_upper));
                banzhaf_lower += &lo;
                banzhaf_upper += &up;
            }
            BoundQuad { banzhaf_lower, banzhaf_upper, count_lower, count_upper }
        }
        OpKind::Exclusive => {
            let mut banzhaf_lower = Int::zero();
            let mut banzhaf_upper = Int::zero();
            let mut count_lower = Natural::zero();
            let mut count_upper = Natural::zero();
            for c in children.ids() {
                let q = child(c);
                banzhaf_lower += &q.banzhaf_lower;
                banzhaf_upper += &q.banzhaf_upper;
                count_lower += &q.count_lower;
                count_upper += &q.count_upper;
            }
            BoundQuad { banzhaf_lower, banzhaf_upper, count_lower, count_upper }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exaban::exaban_single;
    use banzhaf_boolean::Dnf;
    use banzhaf_dtree::{Budget, PivotHeuristic};

    fn v(i: u32) -> Var {
        Var(i)
    }

    /// Bounds on the single-leaf (uncompiled) d-tree must bracket the exact
    /// values for every variable, for a handful of functions.
    #[test]
    fn leaf_bounds_bracket_exact_values() {
        let functions = vec![
            Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(2), v(3)]]),
            Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]),
            Dnf::from_clauses(vec![vec![v(0)], vec![v(1), v(2)], vec![v(2), v(3), v(4)]]),
        ];
        for phi in functions {
            let tree = DTree::from_leaf(phi.clone());
            let exact_count = phi.brute_force_model_count();
            for x in phi.universe().iter() {
                for opt4 in [false, true] {
                    let q = bounds_for_var(&tree, x, opt4);
                    let exact = phi.brute_force_banzhaf(x);
                    assert!(q.banzhaf_lower <= exact, "{phi} {x} lower");
                    assert!(exact <= q.banzhaf_upper, "{phi} {x} upper");
                    assert!(q.count_lower <= exact_count);
                    assert!(exact_count <= q.count_upper);
                }
            }
        }
    }

    /// After every incremental expansion step the bounds must still bracket
    /// the exact value, and on the complete d-tree they collapse to it
    /// (Prop. 15 and Lemma 20).
    #[test]
    fn bounds_tighten_to_exact_on_completion() {
        let phi = Dnf::from_clauses(vec![
            vec![v(0), v(1)],
            vec![v(1), v(2)],
            vec![v(2), v(3)],
            vec![v(3), v(0)],
        ]);
        let exact: Vec<(Var, Int)> = phi.brute_force_all_banzhaf();
        let mut tree = DTree::from_leaf(phi.clone());
        loop {
            for (x, expected) in &exact {
                let q = bounds_for_var(&tree, *x, true);
                assert!(
                    &q.banzhaf_lower <= expected,
                    "lower bound violated at step {}",
                    tree.expansions()
                );
                assert!(
                    expected <= &q.banzhaf_upper,
                    "upper bound violated at step {}",
                    tree.expansions()
                );
            }
            if tree.expand_largest_leaf(PivotHeuristic::MostFrequent).is_none() {
                break;
            }
        }
        for (x, expected) in &exact {
            let q = bounds_for_var(&tree, *x, true);
            assert_eq!(&q.banzhaf_lower, expected);
            assert_eq!(&q.banzhaf_upper, expected);
        }
    }

    /// On complete d-trees the bounds equal the ExaBan output (Lemma 20).
    #[test]
    fn complete_tree_bounds_equal_exaban() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(0), v(2)]]);
        let tree =
            DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
                .unwrap();
        for x in phi.universe().iter() {
            let q = bounds_for_var(&tree, x, false);
            let (b, c) = exaban_single(&tree, x);
            assert_eq!(q.banzhaf_lower, b);
            assert_eq!(q.banzhaf_upper, b);
            assert_eq!(q.count_lower, c);
            assert_eq!(q.count_upper, c);
        }
    }

    #[test]
    fn clamping_is_sound() {
        let q = BoundQuad {
            banzhaf_lower: Int::from(-3i64),
            banzhaf_upper: Int::from(5i64),
            count_lower: Natural::zero(),
            count_upper: Natural::one(),
        };
        let (lo, up) = q.banzhaf_bounds_clamped();
        assert_eq!(lo.to_u64(), Some(0));
        assert_eq!(up.to_u64(), Some(5));
    }

    #[test]
    fn interval_multiplication_cases() {
        let cases = [(-2i64, 3i64, 1u64, 4u64), (-5, -1, 2, 3), (1, 6, 0, 2), (0, 0, 5, 9)];
        for (bl, bu, fl, fu) in cases {
            let (lo, up) = mul_interval(
                (&Int::from(bl), &Int::from(bu)),
                (&Natural::from(fl), &Natural::from(fu)),
            );
            // Exhaustively verify against all integer products in the box.
            let mut min = i64::MAX;
            let mut max = i64::MIN;
            for b in bl..=bu {
                for f in fl..=fu {
                    min = min.min(b * f as i64);
                    max = max.max(b * f as i64);
                }
            }
            assert_eq!(lo.to_i128(), Some(min as i128));
            assert_eq!(up.to_i128(), Some(max as i128));
        }
    }
}
