//! AdaBan: anytime deterministic approximation of Banzhaf values (Fig. 3).
//!
//! `AdaBan` interleaves incremental d-tree compilation with bound computation:
//! after each batch of expansion steps it recomputes the bound quadruple for
//! the variable of interest and stops as soon as the relative-error condition
//! `(1−ε)·U ≤ (1+ε)·L` holds. Because expansion steps can only tighten the
//! bounds (Prop. 15) and a complete d-tree yields the exact value (Lemma 20),
//! the loop always terminates with a certified ε-approximation — unless the
//! caller-provided budget runs out first.
//!
//! The four optimizations of Sec. 3.2.4 are represented as follows:
//! 1. *lazy bound recomputation* — bounds are recomputed only after a Shannon
//!    expansion (independence/factoring steps keep expanding);
//! 2. subtree bound caching is subsumed by recomputing over the (small)
//!    d-tree skeleton only; the expensive part, the iDNF bounds at leaves, is
//!    recomputed only for leaves that changed because unchanged leaves keep
//!    their DNF identity;
//! 3. *shared partial d-tree across variables* — [`adaban_all`] approximates
//!    one variable at a time, reusing the same tree;
//! 4. the tighter leaf bound based on `#φ − 2·#φ[x:=0]` (`use_opt4`).

use crate::bounds::bounds_for_var;
use banzhaf_arith::{Int, Natural, Rational};
use banzhaf_boolean::Var;
use banzhaf_dtree::{Budget, DTree, Interrupted, OpKind, PivotHeuristic};

/// Configuration of the AdaBan approximation.
#[derive(Clone, Debug)]
pub struct AdaBanOptions {
    /// Relative error ε ∈ [0, 1]. With ε = 0 AdaBan degenerates to exact
    /// computation (it keeps expanding until lower and upper bounds meet).
    pub epsilon: Rational,
    /// Shannon pivot-selection heuristic used for leaf expansion.
    pub heuristic: PivotHeuristic,
    /// Use the tighter leaf bounds of optimization (4).
    pub use_opt4: bool,
    /// Lazy bound recomputation (optimization (1)): keep expanding through
    /// factoring/partitioning steps and only recompute bounds after a Shannon
    /// expansion step (or completion).
    pub lazy: bool,
}

impl AdaBanOptions {
    /// Options with the paper's default configuration and the given ε.
    pub fn with_epsilon(epsilon: Rational) -> Self {
        AdaBanOptions {
            epsilon,
            heuristic: PivotHeuristic::MostFrequent,
            use_opt4: true,
            lazy: true,
        }
    }

    /// Convenience constructor taking ε as a decimal string such as `"0.1"`.
    ///
    /// # Panics
    /// Panics if the string is not a valid decimal.
    pub fn with_epsilon_str(epsilon: &str) -> Self {
        AdaBanOptions::with_epsilon(Rational::from_decimal_str(epsilon).expect("valid ε"))
    }
}

impl Default for AdaBanOptions {
    fn default() -> Self {
        AdaBanOptions::with_epsilon(Rational::new(Int::one(), Natural::from(10u64)))
    }
}

/// A certified approximation interval `[lower, upper]` containing the exact
/// Banzhaf value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApproxInterval {
    /// Certified lower bound on the Banzhaf value.
    pub lower: Natural,
    /// Certified upper bound on the Banzhaf value.
    pub upper: Natural,
}

impl ApproxInterval {
    /// Builds an interval, checking the orientation.
    pub fn new(lower: Natural, upper: Natural) -> Self {
        debug_assert!(lower <= upper, "interval bounds out of order");
        ApproxInterval { lower, upper }
    }

    /// `true` iff the interval is a single point (the exact value).
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }

    /// `true` iff the relative-error condition `(1−ε)·upper ≤ (1+ε)·lower`
    /// holds, i.e. every value in `[(1−ε)·upper, (1+ε)·lower]` is an
    /// ε-approximation of the exact value (Prop. 16). This is AdaBan's
    /// stopping condition (Sec. 3.2.3 of the paper).
    ///
    /// Decided exactly, with no floating-point rounding near the boundary:
    /// for ε = n/d the condition is `(d − n)·upper ≤ (d + n)·lower`. With
    /// ε ≥ 1 the left side is at most 0, so the condition always holds.
    pub fn meets_epsilon(&self, epsilon: &Rational) -> bool {
        let (n, d) = (epsilon.numer(), Int::from(epsilon.denom()));
        (&d - n).mul_natural(&self.upper) <= (&d + n).mul_natural(&self.lower)
    }

    /// Midpoint of the interval as `f64`, used as the point estimate when
    /// reporting approximate values and approximate rankings.
    pub fn midpoint(&self) -> f64 {
        f64::midpoint(self.lower.to_f64(), self.upper.to_f64())
    }

    /// `true` iff this interval lies strictly below `other` (their closures
    /// do not intersect), which certifies the ranking between the two
    /// variables.
    pub fn strictly_below(&self, other: &ApproxInterval) -> bool {
        self.upper < other.lower
    }

    /// `true` iff both intervals are the same single point (a certified tie).
    pub fn certified_tie(&self, other: &ApproxInterval) -> bool {
        self.is_exact() && other.is_exact() && self.lower == other.lower
    }
}

/// Runs AdaBan for a single variable on the given (typically un-expanded)
/// d-tree, refining it in place. Returns a certified interval that satisfies
/// the requested relative error.
///
/// The d-tree is mutated: expansions performed while approximating this
/// variable remain available to later calls (optimization (3)).
pub fn adaban(
    tree: &mut DTree,
    x: Var,
    options: &AdaBanOptions,
    budget: &Budget,
) -> Result<ApproxInterval, Interrupted> {
    // Trivial initial bounds [0, 2^{n-1}] (the Banzhaf value of a variable in
    // a positive function over n variables is at most 2^{n-1}).
    let n = tree.num_vars();
    let mut best =
        ApproxInterval { lower: Natural::zero(), upper: Natural::pow2(n.saturating_sub(1)) };

    loop {
        budget.check_deadline()?;
        let quad = bounds_for_var(tree, x, options.use_opt4);
        let (lower, upper) = quad.banzhaf_bounds_clamped();
        // Keep the best bounds seen so far (the quad bounds of a partial tree
        // are monotone in practice, but max/min keeps the invariant obvious).
        if lower > best.lower {
            best.lower = lower;
        }
        if upper < best.upper {
            best.upper = upper;
        }
        if best.upper < best.lower {
            // Numerically impossible for sound bounds; normalize defensively.
            best.upper = best.lower.clone();
        }
        if best.meets_epsilon(&options.epsilon) {
            return Ok(best);
        }
        // Not precise enough: expand the d-tree. With the lazy optimization we
        // keep expanding through cheap factoring/partitioning steps and stop
        // at the first Shannon step, since only Shannon steps change the
        // exclusive structure that the leaf bounds are blind to.
        let mut expanded_any = false;
        loop {
            budget.step()?;
            let Some(op) = tree.expand_largest_leaf(options.heuristic) else {
                break;
            };
            expanded_any = true;
            if !options.lazy || op == OpKind::Exclusive {
                break;
            }
        }
        if !expanded_any {
            // Tree is complete; the next bounds call returns the exact value
            // and the ε-condition necessarily holds. Guard against looping.
            let quad = bounds_for_var(tree, x, options.use_opt4);
            let (lower, upper) = quad.banzhaf_bounds_clamped();
            debug_assert_eq!(lower, upper);
            return Ok(ApproxInterval::new(lower.clone(), lower));
        }
    }
}

/// Runs AdaBan for every variable in `vars`, one variable at a time, reusing
/// the partial d-tree across variables (optimization (3) of Sec. 3.2.4).
pub fn adaban_all(
    tree: &mut DTree,
    vars: &[Var],
    options: &AdaBanOptions,
    budget: &Budget,
) -> Result<Vec<(Var, ApproxInterval)>, Interrupted> {
    let mut out = Vec::with_capacity(vars.len());
    for &x in vars {
        let interval = adaban(tree, x, options, budget)?;
        out.push((x, interval));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use banzhaf_boolean::Dnf;

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn hard_function() -> Dnf {
        // Connected, no common variable: needs Shannon expansion.
        Dnf::from_clauses(vec![
            vec![v(0), v(1)],
            vec![v(1), v(2)],
            vec![v(2), v(3)],
            vec![v(3), v(4)],
            vec![v(4), v(0)],
            vec![v(1), v(3)],
        ])
    }

    #[test]
    fn interval_contains_exact_value_for_every_epsilon() {
        let phi = hard_function();
        for eps in ["0", "0.1", "0.3", "0.5", "1"] {
            let options = AdaBanOptions::with_epsilon_str(eps);
            for x in phi.universe().iter() {
                let mut tree = DTree::from_leaf(phi.clone());
                let interval = adaban(&mut tree, x, &options, &Budget::unlimited()).unwrap();
                let exact = phi.brute_force_banzhaf(x);
                assert!(Int::from(interval.lower.clone()) <= exact, "eps={eps} {x}");
                assert!(exact <= Int::from(interval.upper.clone()), "eps={eps} {x}");
                assert!(interval.meets_epsilon(&options.epsilon));
            }
        }
    }

    #[test]
    fn error_condition_examples_from_paper() {
        let interval = |l: u64, u: u64| ApproxInterval::new(Natural::from(l), Natural::from(u));
        let eps = |s: &str| Rational::from_decimal_str(s).unwrap();
        // Example 14: Lb = 43, Ub = 136. ε = 0.5 is not sufficient, ε = 0.6
        // is sufficient.
        assert!(!interval(43, 136).meets_epsilon(&eps("0.5")));
        assert!(interval(43, 136).meets_epsilon(&eps("0.6")));
        // With ε = 0 the condition only holds when lower == upper.
        assert!(!interval(43, 136).meets_epsilon(&Rational::zero()));
        assert!(interval(136, 136).meets_epsilon(&Rational::zero()));
        // ε ≥ 1 always satisfies the condition.
        assert!(interval(0, 100).meets_epsilon(&Rational::one()));
        assert!(interval(0, 100).meets_epsilon(&eps("2.5")));
    }

    #[test]
    fn epsilon_zero_gives_exact_values() {
        let phi = hard_function();
        let options = AdaBanOptions::with_epsilon_str("0");
        let mut tree = DTree::from_leaf(phi.clone());
        let vars: Vec<Var> = phi.universe().iter().collect();
        let intervals = adaban_all(&mut tree, &vars, &options, &Budget::unlimited()).unwrap();
        for (x, interval) in intervals {
            assert!(interval.is_exact());
            assert_eq!(Int::from(interval.lower), phi.brute_force_banzhaf(x));
        }
    }

    #[test]
    fn shared_tree_makes_later_variables_cheap() {
        let phi = hard_function();
        let options = AdaBanOptions::with_epsilon_str("0");
        let vars: Vec<Var> = phi.universe().iter().collect();
        // Approximating the second variable from scratch costs this much.
        let mut fresh = DTree::from_leaf(phi.clone());
        adaban(&mut fresh, vars[1], &options, &Budget::unlimited()).unwrap();
        let fresh_expansions = fresh.expansions();
        // Reusing the tree refined for the first variable can only need fewer
        // (or equally many) additional expansions (optimization (3)).
        let mut shared = DTree::from_leaf(phi.clone());
        adaban(&mut shared, vars[0], &options, &Budget::unlimited()).unwrap();
        let after_first = shared.expansions();
        adaban(&mut shared, vars[1], &options, &Budget::unlimited()).unwrap();
        let additional = shared.expansions() - after_first;
        assert!(additional <= fresh_expansions);
    }

    #[test]
    fn loose_epsilon_requires_fewer_expansions() {
        let phi = hard_function();
        let x = v(1);
        let mut tree_exact = DTree::from_leaf(phi.clone());
        adaban(&mut tree_exact, x, &AdaBanOptions::with_epsilon_str("0"), &Budget::unlimited())
            .unwrap();
        let mut tree_loose = DTree::from_leaf(phi.clone());
        adaban(&mut tree_loose, x, &AdaBanOptions::with_epsilon_str("1"), &Budget::unlimited())
            .unwrap();
        assert!(tree_loose.expansions() <= tree_exact.expansions());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let phi = hard_function();
        let mut tree = DTree::from_leaf(phi);
        let budget = Budget::with_max_steps(1);
        let result = adaban(&mut tree, v(0), &AdaBanOptions::with_epsilon_str("0"), &budget);
        assert_eq!(result.unwrap_err(), Interrupted);
    }

    #[test]
    fn eager_and_lazy_agree() {
        let phi = hard_function();
        for x in phi.universe().iter() {
            let mut lazy_opts = AdaBanOptions::with_epsilon_str("0.2");
            lazy_opts.lazy = true;
            let mut eager_opts = lazy_opts.clone();
            eager_opts.lazy = false;
            let mut t1 = DTree::from_leaf(phi.clone());
            let mut t2 = DTree::from_leaf(phi.clone());
            let i1 = adaban(&mut t1, x, &lazy_opts, &Budget::unlimited()).unwrap();
            let i2 = adaban(&mut t2, x, &eager_opts, &Budget::unlimited()).unwrap();
            let exact = phi.brute_force_banzhaf(x);
            for i in [i1, i2] {
                assert!(Int::from(i.lower.clone()) <= exact);
                assert!(exact <= Int::from(i.upper.clone()));
            }
        }
    }

    #[test]
    fn interval_helpers() {
        let a = ApproxInterval::new(Natural::from(1u64), Natural::from(2u64));
        let b = ApproxInterval::new(Natural::from(5u64), Natural::from(9u64));
        assert!(a.strictly_below(&b));
        assert!(!b.strictly_below(&a));
        assert!(!a.is_exact());
        let c = ApproxInterval::new(Natural::from(4u64), Natural::from(4u64));
        assert!(c.is_exact());
        assert!(c.certified_tie(&c.clone()));
        assert!((a.midpoint() - 1.5).abs() < 1e-12);
    }
}
