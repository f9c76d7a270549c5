//! iDNF bound functions `L(φ)` and `U(φ)` and their linear-time counting.
//!
//! An *iDNF* (independent DNF, \[22\] in the paper) is a positive DNF in which
//! every variable occurs at most once. Model counting for iDNF functions is
//! linear time because the clauses are over pairwise disjoint variable sets.
//!
//! Section 3.2.1 of the paper uses two mappings from an arbitrary positive DNF
//! `φ` to iDNF functions:
//!
//! * `L(φ)` — keep a maximal subset of pairwise variable-disjoint clauses;
//!   every model of `L(φ)` extends to a model of `φ`, so `#L(φ) ≤ #φ`.
//! * `U(φ)` — keep the first occurrence of every variable and delete repeated
//!   occurrences from later clauses; clauses only get easier to satisfy, so
//!   `#φ ≤ #U(φ)`.
//!
//! Together with Prop. 12 these yield cheap lower/upper bounds on model
//! counts and Banzhaf values for the non-trivial leaves of a partial d-tree.

use crate::{Clause, Dnf, Var, VarSet};
use banzhaf_arith::{Int, Natural};

impl Dnf {
    /// `true` iff the function is an iDNF: no variable occurs in two clauses
    /// (nor twice in one clause, which the clause representation already
    /// rules out).
    pub fn is_idnf(&self) -> bool {
        let mut seen = VarSet::empty();
        for c in self.clauses() {
            for v in c.iter() {
                if seen.contains(v) {
                    return false;
                }
                seen.insert(v);
            }
        }
        true
    }

    /// Model count of an iDNF function in time linear in its size.
    ///
    /// Non-models must falsify every clause; for a clause with `k` variables
    /// there are `2^k − 1` falsifying assignments of its own variables, and
    /// the clauses are variable-disjoint, so the counts multiply. Variables of
    /// the universe that appear in no clause are unconstrained.
    ///
    /// # Panics
    /// Panics (in debug builds) if the function is not an iDNF.
    pub fn idnf_model_count(&self) -> Natural {
        debug_assert!(self.is_idnf(), "idnf_model_count requires an iDNF input");
        if self.is_true() {
            return Natural::pow2(self.num_vars());
        }
        if self.is_false() {
            return Natural::zero();
        }
        let free = self.num_vars() - self.size();
        let mut non_models = Natural::pow2(free);
        for c in self.clauses() {
            let ways = &Natural::pow2(c.len()) - &Natural::one();
            non_models = non_models.mul_ref(&ways);
        }
        &Natural::pow2(self.num_vars()) - &non_models
    }
}

/// The iDNF lower-bound function `L(φ)`: a maximal (greedy) subset of pairwise
/// variable-disjoint clauses of `φ`, over the same universe.
///
/// Clauses are scanned shortest-first so that more clauses tend to be kept,
/// which makes the lower bound tighter in practice; any greedy selection is
/// sound. Unlike the paper (which restricts `L(φ)` to the variables occurring
/// in the kept clauses), we keep the full universe — every model of the kept
/// clauses over the universe already satisfies `φ`, which yields a tighter yet
/// still sound lower bound.
pub fn lower_bound_fn(phi: &Dnf) -> Dnf {
    if phi.is_constant() {
        return phi.clone();
    }
    let mut order: Vec<Clause<'_>> = phi.clauses().iter().collect();
    order.sort_by_key(|c| c.len());
    let mut used = VarSet::empty();
    let mut kept = Dnf::with_capacity(phi.universe().clone(), 0, 0);
    for c in order {
        if c.iter().all(|v| !used.contains(v)) {
            for v in c.iter() {
                used.insert(v);
            }
            kept.push_sorted(c.vars());
        }
    }
    kept.canonical()
}

/// The iDNF upper-bound function `U(φ)`: keeps the first occurrence of every
/// variable and drops repeated occurrences from later clauses, over the same
/// universe. If a clause loses all its variables the result is the constant
/// `true` (a sound, if loose, upper bound).
pub fn upper_bound_fn(phi: &Dnf) -> Dnf {
    if phi.is_constant() {
        return phi.clone();
    }
    let mut seen = VarSet::empty();
    let mut kept = Dnf::with_capacity(phi.universe().clone(), phi.num_clauses(), phi.size());
    let mut fresh: Vec<Var> = Vec::new();
    for c in phi.clauses() {
        fresh.clear();
        fresh.extend(c.iter().filter(|&v| !seen.contains(v)));
        for &v in &fresh {
            seen.insert(v);
        }
        kept.push_sorted(&fresh);
    }
    kept.canonical()
}

/// Lower and upper bounds for the model count and the Banzhaf value of one
/// variable in a positive DNF leaf, per Prop. 12 of the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdnfCounts {
    /// Lower bound on `Banzhaf(φ, x)`.
    pub banzhaf_lower: Int,
    /// Upper bound on `Banzhaf(φ, x)`.
    pub banzhaf_upper: Int,
    /// Lower bound on `#φ`.
    pub count_lower: Natural,
    /// Upper bound on `#φ`.
    pub count_upper: Natural,
}

impl IdnfCounts {
    /// Computes the Prop. 12 bounds for variable `x` in `phi`:
    ///
    /// ```text
    ///   #L(φ) ≤ #φ ≤ #U(φ)
    ///   #L(φ[x:=1]) − #U(φ[x:=0]) ≤ Banzhaf(φ, x) ≤ #U(φ[x:=1]) − #L(φ[x:=0])
    /// ```
    ///
    /// Since `φ` is positive, its Banzhaf values are non-negative, so the
    /// lower bound is additionally clamped at zero.
    pub fn for_leaf(phi: &Dnf, x: Var) -> IdnfCounts {
        let count_lower = lower_bound_fn(phi).idnf_model_count();
        let count_upper = upper_bound_fn(phi).idnf_model_count();
        let pos = phi.condition(x, true);
        let neg = phi.condition(x, false);
        let lower = Int::sub_naturals(
            &lower_bound_fn(&pos).idnf_model_count(),
            &upper_bound_fn(&neg).idnf_model_count(),
        );
        let upper = Int::sub_naturals(
            &upper_bound_fn(&pos).idnf_model_count(),
            &lower_bound_fn(&neg).idnf_model_count(),
        );
        let banzhaf_lower = if lower.is_negative() { Int::zero() } else { lower };
        IdnfCounts { banzhaf_lower, banzhaf_upper: upper, count_lower, count_upper }
    }

    /// Variant of [`IdnfCounts::for_leaf`] implementing optimization (4) of
    /// Sec. 3.2.4: bound `Banzhaf(φ, x) = #φ − 2·#φ[x := 0]` using bounds on
    /// `#φ` and `#φ[x := 0]` instead of on `#φ[x := 1]` and `#φ[x := 0]`.
    /// The two bound forms are then intersected.
    pub fn for_leaf_opt4(phi: &Dnf, x: Var) -> IdnfCounts {
        let base = IdnfCounts::for_leaf(phi, x);
        let neg = phi.condition(x, false);
        let neg_lower = lower_bound_fn(&neg).idnf_model_count();
        let neg_upper = upper_bound_fn(&neg).idnf_model_count();
        // Banzhaf = #φ − 2·#φ[x:=0]
        let two = Natural::from(2u64);
        let alt_lower = Int::sub_naturals(&base.count_lower, &two.mul_ref(&neg_upper));
        let alt_upper = Int::sub_naturals(&base.count_upper, &two.mul_ref(&neg_lower));
        let alt_lower = if alt_lower.is_negative() { Int::zero() } else { alt_lower };
        IdnfCounts {
            banzhaf_lower: base.banzhaf_lower.max(alt_lower),
            banzhaf_upper: base.banzhaf_upper.min(alt_upper),
            count_lower: base.count_lower,
            count_upper: base.count_upper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn idnf_recognition() {
        assert!(Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(2)]]).is_idnf());
        assert!(!Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)]]).is_idnf());
        assert!(Dnf::constant_true(VarSet::empty()).is_idnf());
        assert!(Dnf::constant_false(VarSet::from_iter([v(0)])).is_idnf());
    }

    #[test]
    fn idnf_counting_matches_brute_force() {
        let functions = vec![
            Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(2)]]),
            Dnf::from_clauses(vec![vec![v(0)], vec![v(1)], vec![v(2), v(3), v(4)]]),
            Dnf::from_clauses_with_universe(
                vec![vec![v(0), v(1)]],
                VarSet::from_iter([v(0), v(1), v(2), v(3)]),
            ),
            Dnf::constant_true(VarSet::from_iter([v(0), v(1)])),
            Dnf::constant_false(VarSet::from_iter([v(0), v(1)])),
        ];
        for phi in functions {
            assert_eq!(phi.idnf_model_count(), phi.brute_force_model_count(), "{phi}");
        }
    }

    #[test]
    fn example_13_bounds() {
        // φ = (x ∧ y) ∨ (x ∧ z) ∨ u from Example 13.
        let x = v(0);
        let phi = Dnf::from_clauses(vec![vec![x, v(1)], vec![x, v(2)], vec![v(3)]]);

        // φ[x := 1] = y ∨ z ∨ u and φ[x := 0] = u are already iDNF, so
        // L and U leave them unchanged.
        let pos = phi.condition(x, true);
        let neg = phi.condition(x, false);
        assert_eq!(lower_bound_fn(&pos), pos);
        assert_eq!(upper_bound_fn(&pos), pos);
        assert_eq!(lower_bound_fn(&neg), neg);
        assert_eq!(upper_bound_fn(&neg), neg);
        assert_eq!(pos.idnf_model_count().to_u64(), Some(7));
        assert_eq!(neg.idnf_model_count().to_u64(), Some(4));

        // The paper derives #L(φ) = 5 by counting L(φ) = (x∧y) ∨ u over only
        // the three variables that occur in it. We keep the full universe
        // (which is also sound and strictly tighter): the same L(φ) counted
        // over {x,y,z,u} has 10 models. U(φ) = (x∧y) ∨ z ∨ u has 13 models,
        // as in the paper.
        let l = lower_bound_fn(&phi);
        let u = upper_bound_fn(&phi);
        assert!(l.is_idnf() && u.is_idnf());
        assert_eq!(l.idnf_model_count().to_u64(), Some(10));
        assert_eq!(u.idnf_model_count().to_u64(), Some(13));

        // Prop. 12 bracketing: 10 ≤ 11 ≤ 13 and 3 ≤ Banzhaf = 3 ≤ 3.
        let counts = IdnfCounts::for_leaf(&phi, x);
        assert_eq!(counts.count_lower.to_u64(), Some(10));
        assert_eq!(counts.count_upper.to_u64(), Some(13));
        assert_eq!(counts.banzhaf_lower.to_i128(), Some(3));
        assert_eq!(counts.banzhaf_upper.to_i128(), Some(3));
    }

    #[test]
    fn bounds_bracket_brute_force() {
        let functions = vec![
            Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(2), v(3)]]),
            Dnf::from_clauses(vec![vec![v(0), v(1), v(2)], vec![v(0), v(3)], vec![v(3), v(4)]]),
            Dnf::from_clauses(vec![vec![v(0)], vec![v(0), v(1)], vec![v(1), v(2), v(3)]]),
        ];
        for phi in functions {
            let exact = phi.brute_force_model_count();
            assert!(lower_bound_fn(&phi).idnf_model_count() <= exact);
            assert!(upper_bound_fn(&phi).idnf_model_count() >= exact);
            for x in phi.universe().iter() {
                let exact_b = phi.brute_force_banzhaf(x);
                for counts in [IdnfCounts::for_leaf(&phi, x), IdnfCounts::for_leaf_opt4(&phi, x)] {
                    assert!(counts.banzhaf_lower <= exact_b, "{phi} {x}");
                    assert!(counts.banzhaf_upper >= exact_b, "{phi} {x}");
                    assert!(counts.banzhaf_lower <= counts.banzhaf_upper);
                }
            }
        }
    }

    #[test]
    fn opt4_bounds_never_looser() {
        let phi = Dnf::from_clauses(vec![
            vec![v(0), v(1)],
            vec![v(0), v(2)],
            vec![v(1), v(3)],
            vec![v(2), v(4)],
        ]);
        for x in phi.universe().iter() {
            let base = IdnfCounts::for_leaf(&phi, x);
            let opt = IdnfCounts::for_leaf_opt4(&phi, x);
            assert!(opt.banzhaf_lower >= base.banzhaf_lower);
            assert!(opt.banzhaf_upper <= base.banzhaf_upper);
        }
    }

    #[test]
    fn upper_bound_may_collapse_to_true() {
        // Duplicate clause: the second occurrence loses all variables,
        // turning U(φ) into the constant true — still a sound upper bound.
        let phi = Dnf::from_clauses_with_universe(
            vec![vec![v(0), v(1)], vec![v(0)]],
            VarSet::from_iter([v(0), v(1)]),
        );
        let u = upper_bound_fn(&phi);
        assert!(u.idnf_model_count() >= phi.brute_force_model_count());
    }

    #[test]
    fn lower_bound_keeps_short_clauses_first() {
        // Clauses: {x0,x1,x2}, {x0}, {x3}; greedy shortest-first keeps {x0},{x3}.
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1), v(2)], vec![v(0)], vec![v(3)]]);
        let l = lower_bound_fn(&phi);
        assert_eq!(l.num_clauses(), 2);
        assert!(l.is_idnf());
        assert!(l.idnf_model_count() <= phi.brute_force_model_count());
    }
}
