//! IchiBan: Banzhaf-based ranking and top-k via interval separation (Sec. 4.1).
//!
//! IchiBan maintains an approximation interval per fact and incrementally
//! refines all of them over a *shared* partial d-tree until either
//!
//! * the intervals certify the answer (for top-k: all but `k` facts are
//!   dominated by at least `k` others; for ranking: adjacent intervals in the
//!   midpoint order are separated or are certified ties), or
//! * in the ε-relaxed mode, every remaining interval satisfies the relative
//!   error ε, in which case facts are ordered by interval midpoints.

use crate::adaban::ApproxInterval;
use crate::bounds::bounds_for_var;
use banzhaf_arith::Rational;
use banzhaf_boolean::Var;
use banzhaf_dtree::{Budget, DTree, Interrupted, PivotHeuristic};
use std::collections::HashMap;

/// Configuration of IchiBan.
#[derive(Clone, Debug)]
pub struct IchiBanOptions {
    /// When `Some(ε)`, IchiBan may stop as soon as every (remaining) interval
    /// satisfies the relative error ε and rank by interval midpoints; when
    /// `None` it runs until the answer is certain.
    pub epsilon: Option<Rational>,
    /// Shannon pivot-selection heuristic for leaf expansion.
    pub heuristic: PivotHeuristic,
    /// Use the tighter leaf bounds of optimization (4).
    pub use_opt4: bool,
    /// Number of d-tree expansion steps performed between interval
    /// refinement rounds.
    pub expansion_batch: usize,
}

impl IchiBanOptions {
    /// Certain (exact separation) mode with default heuristics.
    pub fn certain() -> Self {
        IchiBanOptions {
            epsilon: None,
            heuristic: PivotHeuristic::MostFrequent,
            use_opt4: true,
            expansion_batch: 4,
        }
    }

    /// ε-relaxed mode (`IchiBan_ε` in the paper) with default heuristics.
    pub fn with_epsilon(epsilon: Rational) -> Self {
        IchiBanOptions { epsilon: Some(epsilon), ..IchiBanOptions::certain() }
    }

    /// Convenience constructor taking ε as a decimal string such as `"0.1"`.
    ///
    /// # Panics
    /// Panics if the string is not a valid decimal.
    pub fn with_epsilon_str(epsilon: &str) -> Self {
        IchiBanOptions::with_epsilon(Rational::from_decimal_str(epsilon).expect("valid ε"))
    }
}

impl Default for IchiBanOptions {
    fn default() -> Self {
        IchiBanOptions::certain()
    }
}

/// Result of a top-k computation.
#[derive(Clone, Debug)]
pub struct TopK {
    /// The requested k (clamped to the number of variables).
    pub k: usize,
    /// The selected facts, ordered by decreasing (estimated) Banzhaf value.
    pub members: Vec<Var>,
    /// The final approximation interval of every fact.
    pub intervals: HashMap<Var, ApproxInterval>,
    /// `true` iff the membership of the top-k set is certified by interval
    /// separation (as opposed to decided by ε-relaxed midpoints).
    pub certified: bool,
}

/// Result of a ranking computation.
#[derive(Clone, Debug)]
pub struct Ranking {
    /// All facts ordered by decreasing (estimated) Banzhaf value.
    pub order: Vec<Var>,
    /// The final approximation interval of every fact.
    pub intervals: HashMap<Var, ApproxInterval>,
    /// `true` iff every adjacent pair in the order is certified (separated
    /// intervals or exact ties).
    pub certified: bool,
}

fn interval_for(tree: &DTree, x: Var, use_opt4: bool) -> ApproxInterval {
    let quad = bounds_for_var(tree, x, use_opt4);
    let (lower, upper) = quad.banzhaf_bounds_clamped();
    let upper = if upper < lower { lower.clone() } else { upper };
    ApproxInterval::new(lower, upper)
}

/// Number of variables whose certified lower bound strictly exceeds the upper
/// bound of `x` — i.e. how many facts certainly dominate `x`.
fn dominated_by(x: Var, intervals: &HashMap<Var, ApproxInterval>) -> usize {
    let xi = &intervals[&x];
    intervals.iter().filter(|(v, i)| **v != x && i.lower > xi.upper).count()
}

/// Computes the facts with the `k` largest Banzhaf values (Sec. 4.1).
///
/// The d-tree is refined in place; on return it may be partially compiled.
pub fn ichiban_topk(
    tree: &mut DTree,
    k: usize,
    options: &IchiBanOptions,
    budget: &Budget,
) -> Result<TopK, Interrupted> {
    let vars: Vec<Var> = tree.universe().iter().collect();
    let k = k.min(vars.len());
    // Candidates still in the running for the top-k set.
    let mut active: Vec<Var> = vars.clone();
    let mut intervals: HashMap<Var, ApproxInterval> = HashMap::new();

    loop {
        budget.check_deadline()?;
        for &x in &active {
            intervals.insert(x, interval_for(tree, x, options.use_opt4));
        }
        // Discard candidates dominated by at least k others.
        active.retain(|&x| dominated_by(x, &intervals) < k);

        let complete = tree.is_complete();
        let separated = active.len() <= k;
        let epsilon_ok = options
            .epsilon
            .as_ref()
            .is_some_and(|eps| active.iter().all(|x| intervals[x].meets_epsilon(eps)));
        if separated || complete || epsilon_ok {
            let mut order = active.clone();
            order.sort_by(|a, b| {
                let (ia, ib) = (&intervals[a], &intervals[b]);
                ib.midpoint()
                    .partial_cmp(&ia.midpoint())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            });
            order.truncate(k);
            // The set is certified when interval separation (or completion,
            // which makes all intervals exact) decided it — not when the
            // ε-relaxation cut the refinement short.
            let certified = separated || complete;
            return Ok(TopK { k, members: order, intervals, certified });
        }

        expand_batch(tree, options, budget)?;
    }
}

/// Ranks all facts by Banzhaf value (Sec. 4.1).
pub fn ichiban_rank(
    tree: &mut DTree,
    options: &IchiBanOptions,
    budget: &Budget,
) -> Result<Ranking, Interrupted> {
    let vars: Vec<Var> = tree.universe().iter().collect();
    let mut intervals: HashMap<Var, ApproxInterval> = HashMap::new();

    loop {
        budget.check_deadline()?;
        for &x in &vars {
            intervals.insert(x, interval_for(tree, x, options.use_opt4));
        }
        let mut order = vars.clone();
        order.sort_by(|a, b| {
            let (ia, ib) = (&intervals[a], &intervals[b]);
            ib.midpoint()
                .partial_cmp(&ia.midpoint())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        // The order is certified when every adjacent pair is separated or is
        // an exact tie: separation is transitive along the sorted order.
        let certified = order.windows(2).all(|w| {
            let (hi, lo) = (&intervals[&w[0]], &intervals[&w[1]]);
            lo.strictly_below(hi) || lo.certified_tie(hi)
        });
        let complete = tree.is_complete();
        let epsilon_ok = options
            .epsilon
            .as_ref()
            .is_some_and(|eps| vars.iter().all(|x| intervals[x].meets_epsilon(eps)));
        if certified || complete || epsilon_ok {
            return Ok(Ranking { order, intervals, certified: certified || complete });
        }

        expand_batch(tree, options, budget)?;
    }
}

fn expand_batch(
    tree: &mut DTree,
    options: &IchiBanOptions,
    budget: &Budget,
) -> Result<(), Interrupted> {
    for _ in 0..options.expansion_batch.max(1) {
        budget.step()?;
        if tree.expand_largest_leaf(options.heuristic).is_none() {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exaban::exaban_all;
    use banzhaf_boolean::Dnf;

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn hard_function() -> Dnf {
        Dnf::from_clauses(vec![
            vec![v(0), v(1)],
            vec![v(1), v(2)],
            vec![v(2), v(3)],
            vec![v(3), v(4)],
            vec![v(4), v(0)],
            vec![v(0), v(2)],
        ])
    }

    fn ground_truth_topk(phi: &Dnf, k: usize) -> Vec<Var> {
        let tree =
            DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
                .unwrap();
        exaban_all(&tree).top_k(k).into_iter().map(|(v, _)| v).collect()
    }

    #[test]
    fn certain_topk_matches_exact_topk() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]);
        let truth = ground_truth_topk(&phi, 2);
        let mut tree = DTree::from_leaf(phi);
        let topk =
            ichiban_topk(&mut tree, 2, &IchiBanOptions::certain(), &Budget::unlimited()).unwrap();
        assert!(topk.certified);
        assert_eq!(topk.members, truth);
    }

    #[test]
    fn topk_with_epsilon_is_accurate_on_separated_values() {
        let phi = hard_function();
        let truth = ground_truth_topk(&phi, 3);
        let mut tree = DTree::from_leaf(phi);
        let topk = ichiban_topk(
            &mut tree,
            3,
            &IchiBanOptions::with_epsilon_str("0.1"),
            &Budget::unlimited(),
        )
        .unwrap();
        // precision@3 is measured as set overlap (Table 8).
        let hits = topk.members.iter().filter(|m| truth.contains(m)).count();
        assert!(hits >= 2, "expected at least 2/3 precision, got {hits}/3");
        assert_eq!(topk.members.len(), 3);
    }

    #[test]
    fn topk_k_larger_than_vars() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)]]);
        let mut tree = DTree::from_leaf(phi);
        let topk =
            ichiban_topk(&mut tree, 10, &IchiBanOptions::certain(), &Budget::unlimited()).unwrap();
        assert_eq!(topk.k, 2);
        assert_eq!(topk.members.len(), 2);
    }

    #[test]
    fn certain_ranking_matches_exact_ranking_values() {
        let phi = hard_function();
        let tree_exact =
            DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
                .unwrap();
        let exact = exaban_all(&tree_exact);
        let mut tree = DTree::from_leaf(phi.clone());
        let ranking =
            ichiban_rank(&mut tree, &IchiBanOptions::certain(), &Budget::unlimited()).unwrap();
        assert!(ranking.certified);
        assert_eq!(ranking.order.len(), phi.num_vars());
        // The ranking must be consistent with the exact values: values along
        // the returned order are non-increasing.
        let values: Vec<_> =
            ranking.order.iter().map(|x| exact.value(*x).unwrap().clone()).collect();
        for w in values.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // And every final interval contains the exact value.
        for (x, interval) in &ranking.intervals {
            let exact_v = exact.value(*x).unwrap();
            assert!(&interval.lower <= exact_v && exact_v <= &interval.upper);
        }
    }

    #[test]
    fn epsilon_ranking_orders_by_midpoints() {
        let phi = hard_function();
        let mut tree = DTree::from_leaf(phi.clone());
        let ranking =
            ichiban_rank(&mut tree, &IchiBanOptions::with_epsilon_str("0.2"), &Budget::unlimited())
                .unwrap();
        assert_eq!(ranking.order.len(), phi.num_vars());
        // Midpoints are non-increasing along the reported order.
        let mids: Vec<f64> =
            ranking.order.iter().map(|x| ranking.intervals[x].midpoint()).collect();
        for w in mids.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn ties_are_handled() {
        // Fully symmetric function: all variables have the same value.
        let phi = Dnf::from_clauses(vec![vec![v(0)], vec![v(1)], vec![v(2)]]);
        let mut tree = DTree::from_leaf(phi);
        let ranking =
            ichiban_rank(&mut tree, &IchiBanOptions::certain(), &Budget::unlimited()).unwrap();
        assert!(ranking.certified);
        assert_eq!(ranking.order.len(), 3);
        let mut tree2 =
            DTree::from_leaf(Dnf::from_clauses(vec![vec![v(0)], vec![v(1)], vec![v(2)]]));
        let topk =
            ichiban_topk(&mut tree2, 2, &IchiBanOptions::certain(), &Budget::unlimited()).unwrap();
        assert_eq!(topk.members.len(), 2);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let phi = hard_function();
        let mut tree = DTree::from_leaf(phi);
        let budget = Budget::with_max_steps(1);
        let result = ichiban_rank(&mut tree, &IchiBanOptions::certain(), &budget);
        assert_eq!(result.unwrap_err(), Interrupted);
    }

    #[test]
    fn tree_vars_collects_universe() {
        let phi = Dnf::from_clauses_with_universe(
            vec![vec![v(0), v(1)]],
            banzhaf_boolean::VarSet::from_iter([v(0), v(1), v(5)]),
        );
        let mut tree = DTree::from_leaf(phi);
        tree.expand_largest_leaf(PivotHeuristic::MostFrequent);
        let vars: Vec<Var> = tree.universe().iter().collect();
        assert_eq!(vars, vec![v(0), v(1), v(5)]);
        // The unused v5 sits in a constant leaf, yet is still ranked.
        let ranking = ichiban_rank(&mut tree, &IchiBanOptions::certain(), &Budget::unlimited());
        let mut ranked = ranking.unwrap().order;
        ranked.sort();
        assert_eq!(ranked, vars);
    }
}
