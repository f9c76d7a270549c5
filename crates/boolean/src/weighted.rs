//! Weighted DNF lineage for aggregate queries.
//!
//! For a Boolean answer, lineage is a positive [`Dnf`] and attribution asks
//! how often a fact flips the answer. For an **aggregate** answer
//! (`COUNT(*)`, `SUM(e)`, `MIN(e)`, `MAX(e)` over an answer group), each
//! clause additionally carries the numeric contribution of its grounding, and
//! a possible world no longer evaluates to a truth value but to an aggregate:
//!
//! * `COUNT`/`SUM`: the sum of the weights of the satisfied clauses (bag
//!   semantics — every grounding contributes, even when its clause is
//!   subsumed by another);
//! * `MIN`/`MAX`: the least/greatest weight among the satisfied clauses.
//!
//! A world satisfying no clause evaluates to **0** by convention (the group
//! is empty, so its total is zero; for `MIN`/`MAX` this matches the common
//! SQL reading of an absent group as a zero contribution). The aggregate
//! Banzhaf value of a fact is the sum over all worlds of the change in the
//! aggregate caused by inserting the fact — the direct generalization of
//! Eq. (1) of the paper, following the aggregate-attribution follow-up work
//! (arXiv 2506.16923).
//!
//! [`WeightedDnf`] is the canonical carrier: clauses are sorted and
//! duplicates are merged *kind-aware* (`COUNT`/`SUM` add their weights,
//! `MIN`/`MAX` keep the least/greatest), so two presentations of the same
//! weighted function compare equal. [`AggregateValue`] is the small
//! propagation abstraction (count/sum with a zero identity, min/max with
//! ±∞ identities) used by world evaluation and sampling estimators.

use crate::{Assignment, Dnf, Var, VarSet};
use banzhaf_arith::Rational;
use std::fmt;

/// Maximum universe size the brute-force aggregate routines accept.
const MAX_BRUTE_VARS: usize = 26;

/// The aggregate function of a query head.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum AggregateKind {
    /// `COUNT(*)` — every clause weighs 1.
    Count,
    /// `SUM(e)` — clauses weigh the grounding's value of `e`.
    Sum,
    /// `MIN(e)` — the least weight among satisfied clauses.
    Min,
    /// `MAX(e)` — the greatest weight among satisfied clauses.
    Max,
}

impl AggregateKind {
    /// All aggregate kinds.
    pub const ALL: [AggregateKind; 4] =
        [AggregateKind::Count, AggregateKind::Sum, AggregateKind::Min, AggregateKind::Max];

    /// The SQL spelling of the aggregate.
    pub fn name(self) -> &'static str {
        match self {
            AggregateKind::Count => "COUNT",
            AggregateKind::Sum => "SUM",
            AggregateKind::Min => "MIN",
            AggregateKind::Max => "MAX",
        }
    }

    /// `true` iff the aggregate is linear in its clauses (`COUNT`/`SUM`),
    /// i.e. the world value is a weighted sum of satisfied clauses. `MIN` and
    /// `MAX` are not linear and need the threshold decomposition instead.
    pub fn is_linear(self) -> bool {
        matches!(self, AggregateKind::Count | AggregateKind::Sum)
    }

    /// Merges the weights of two identical clauses under this aggregate.
    fn merge_weights(self, a: &Rational, b: &Rational) -> Rational {
        match self {
            AggregateKind::Count | AggregateKind::Sum => a + b,
            AggregateKind::Min => a.min(b).clone(),
            AggregateKind::Max => a.max(b).clone(),
        }
    }
}

impl fmt::Display for AggregateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A running aggregate with the proper identity element: 0 for the linear
/// kinds, +∞ / −∞ (represented as `None`) for `MIN` / `MAX`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AggregateValue {
    /// Weighted sum (also `COUNT`, whose clauses weigh 1). Identity: 0.
    Sum(Rational),
    /// Minimum; `None` is the +∞ identity (no clause absorbed yet).
    Min(Option<Rational>),
    /// Maximum; `None` is the −∞ identity (no clause absorbed yet).
    Max(Option<Rational>),
}

impl AggregateValue {
    /// The identity element for the given aggregate kind.
    pub fn identity(kind: AggregateKind) -> Self {
        match kind {
            AggregateKind::Count | AggregateKind::Sum => AggregateValue::Sum(Rational::zero()),
            AggregateKind::Min => AggregateValue::Min(None),
            AggregateKind::Max => AggregateValue::Max(None),
        }
    }

    /// Absorbs the weight of one satisfied clause.
    pub fn absorb(&mut self, w: &Rational) {
        match self {
            AggregateValue::Sum(acc) => *acc += w,
            AggregateValue::Min(acc) => {
                if acc.as_ref().is_none_or(|m| w < m) {
                    *acc = Some(w.clone());
                }
            }
            AggregateValue::Max(acc) => {
                if acc.as_ref().is_none_or(|m| w > m) {
                    *acc = Some(w.clone());
                }
            }
        }
    }

    /// Combines two running aggregates of the same kind.
    ///
    /// # Panics
    /// Panics if the two values carry different aggregate kinds.
    pub fn merge(&mut self, other: &AggregateValue) {
        match (self, other) {
            (AggregateValue::Sum(a), AggregateValue::Sum(b)) => *a += b,
            (AggregateValue::Min(a), AggregateValue::Min(b)) => {
                if let Some(w) = b {
                    if a.as_ref().is_none_or(|m| w < m) {
                        *a = Some(w.clone());
                    }
                }
            }
            (AggregateValue::Max(a), AggregateValue::Max(b)) => {
                if let Some(w) = b {
                    if a.as_ref().is_none_or(|m| w > m) {
                        *a = Some(w.clone());
                    }
                }
            }
            _ => panic!("cannot merge aggregate values of different kinds"),
        }
    }

    /// The final aggregate, with the empty-group convention: a `MIN`/`MAX`
    /// that absorbed nothing finishes as 0.
    pub fn finish(&self) -> Rational {
        match self {
            AggregateValue::Sum(acc) => acc.clone(),
            AggregateValue::Min(acc) | AggregateValue::Max(acc) => {
                acc.clone().unwrap_or_else(Rational::zero)
            }
        }
    }
}

/// A positive DNF whose clauses carry numeric weights — the lineage of one
/// aggregate answer.
///
/// Canonical form: clauses are sorted; duplicate clauses are merged
/// kind-aware (`AggregateKind::merge_weights`); the weight vector is
/// aligned with [`Dnf::clauses`]. Clauses must be non-empty — a grounding
/// with no endogenous fact would contribute unconditionally and has no
/// Banzhaf reading.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WeightedDnf {
    kind: AggregateKind,
    dnf: Dnf,
    weights: Vec<Rational>,
}

impl WeightedDnf {
    /// Builds a weighted DNF from `(clause, weight)` pairs.
    ///
    /// # Panics
    /// Panics if any clause is empty.
    pub fn from_weighted_clauses<I, C>(kind: AggregateKind, clauses: I) -> Self
    where
        I: IntoIterator<Item = (C, Rational)>,
        C: IntoIterator<Item = Var>,
    {
        let mut flat = Dnf::with_capacity(VarSet::empty(), 0, 0);
        let mut weights = Vec::new();
        for (clause, weight) in clauses {
            flat.push_clause(clause);
            weights.push(weight);
        }
        assert!(
            flat.clauses().iter().all(|c| !c.is_empty()),
            "weighted clauses must mention at least one endogenous fact"
        );
        // A stable sort, so equal clauses merge their weights in input order.
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&a, &b| flat.clause(a).cmp(flat.clause(b)));
        let mut dnf = Dnf::with_capacity(VarSet::empty(), order.len(), flat.size());
        let mut merged: Vec<Rational> = Vec::with_capacity(order.len());
        for i in order {
            let (clause, n) = (flat.clause(i), merged.len());
            if n > 0 && dnf.clause(n - 1) == clause {
                merged[n - 1] = kind.merge_weights(&merged[n - 1], &weights[i]);
            } else {
                dnf.push_sorted(clause);
                merged.push(weights[i].clone());
            }
        }
        let dnf = dnf.with_used_universe();
        debug_assert_eq!(dnf.num_clauses(), merged.len());
        WeightedDnf { kind, dnf, weights: merged }
    }

    /// Builds a `COUNT` lineage where every clause weighs 1 (duplicates add).
    pub fn count_of_clauses<I, C>(clauses: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: IntoIterator<Item = Var>,
    {
        WeightedDnf::from_weighted_clauses(
            AggregateKind::Count,
            clauses.into_iter().map(|c| (c, Rational::one())),
        )
    }

    /// The same weighted function over a wider universe (a superset of the
    /// current one). The extra variables are irrelevant — they appear in no
    /// clause — but keep the aggregate defined over the same fact set as a
    /// sibling lineage, which matters to anything that scales by `2^n`.
    ///
    /// # Panics
    /// Panics if `universe` does not contain the current universe.
    pub fn widen_universe(&self, universe: VarSet) -> Self {
        WeightedDnf {
            kind: self.kind,
            dnf: self.dnf.widen_universe(universe),
            weights: self.weights.clone(),
        }
    }

    /// The aggregate kind of the answer.
    pub fn kind(&self) -> AggregateKind {
        self.kind
    }

    /// The Boolean skeleton: the same clauses with the weights forgotten.
    pub fn dnf(&self) -> &Dnf {
        &self.dnf
    }

    /// The clause weights, aligned with [`Dnf::clauses`] of the skeleton.
    pub fn weights(&self) -> &[Rational] {
        &self.weights
    }

    /// The variable universe (that of the skeleton).
    pub fn universe(&self) -> &VarSet {
        self.dnf.universe()
    }

    /// Number of variables in the universe.
    pub fn num_vars(&self) -> usize {
        self.dnf.num_vars()
    }

    /// Number of (distinct) weighted clauses.
    pub fn num_clauses(&self) -> usize {
        self.dnf.num_clauses()
    }

    /// The distinct clause weights in ascending order — the thresholds of the
    /// rank decomposition for `MIN`/`MAX`.
    pub fn distinct_weights(&self) -> Vec<Rational> {
        let mut ws = self.weights.clone();
        ws.sort();
        ws.dedup();
        ws
    }

    /// The Boolean sub-DNF of clauses with weight `≥ θ`, over the full
    /// universe.
    pub fn threshold_ge(&self, theta: &Rational) -> Dnf {
        self.threshold(|w| w >= theta)
    }

    /// The Boolean sub-DNF of clauses with weight `< θ`, over the full
    /// universe.
    pub fn threshold_lt(&self, theta: &Rational) -> Dnf {
        self.threshold(|w| w < theta)
    }

    fn threshold(&self, keep: impl Fn(&Rational) -> bool) -> Dnf {
        Dnf::from_clauses_with_universe(
            self.dnf
                .clauses()
                .iter()
                .zip(&self.weights)
                .filter(|(_, w)| keep(w))
                .map(|(c, _)| c.iter()),
            self.universe().clone(),
        )
    }

    /// Evaluates the aggregate value of one possible world.
    pub fn evaluate(&self, assignment: &Assignment) -> Rational {
        let mut acc = AggregateValue::identity(self.kind);
        for (c, w) in self.dnf.clauses().iter().zip(&self.weights) {
            if c.iter().all(|v| assignment.get(v)) {
                acc.absorb(w);
            }
        }
        acc.finish()
    }

    /// Exact aggregate Banzhaf value of `v` by the definition: the sum over
    /// all `Y ⊆ X∖{v}` of `val(Y ∪ {v}) − val(Y)`.
    ///
    /// # Panics
    /// Panics if the universe has more than 26 variables or `v` is not in it.
    pub fn brute_force_aggregate_banzhaf(&self, v: Var) -> Rational {
        assert!(self.universe().contains(v), "variable not in the universe");
        let others: Vec<Var> = self.universe().iter().filter(|&u| u != v).collect();
        assert!(
            others.len() < MAX_BRUTE_VARS,
            "brute-force aggregate Banzhaf limited to {MAX_BRUTE_VARS} variables"
        );
        let mut value = Rational::zero();
        for mask in 0u64..(1u64 << others.len()) {
            let without = assignment_from_mask(&others, mask);
            let with = without.with(v);
            value += &(&self.evaluate(&with) - &self.evaluate(&without));
        }
        value
    }

    /// The sum of the aggregate over all `2^n` worlds — the aggregate
    /// analogue of the model count, used as a cross-check.
    ///
    /// # Panics
    /// Panics if the universe has more than 26 variables.
    pub fn brute_force_total(&self) -> Rational {
        let vars: Vec<Var> = self.universe().iter().collect();
        assert!(
            vars.len() <= MAX_BRUTE_VARS,
            "brute-force aggregate total limited to {MAX_BRUTE_VARS} variables"
        );
        let mut total = Rational::zero();
        for mask in 0u64..(1u64 << vars.len()) {
            total += &self.evaluate(&assignment_from_mask(&vars, mask));
        }
        total
    }
}

fn assignment_from_mask(vars: &[Var], mask: u64) -> Assignment {
    Assignment::from_true_vars(
        vars.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, &v)| v),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use banzhaf_arith::{Int, Natural};

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn rat(n: i64) -> Rational {
        Rational::from(n)
    }

    fn sum_of(clauses: Vec<(Vec<Var>, i64)>) -> WeightedDnf {
        WeightedDnf::from_weighted_clauses(
            AggregateKind::Sum,
            clauses.into_iter().map(|(c, w)| (c, rat(w))),
        )
    }

    #[test]
    fn canonicalization_merges_duplicates_kind_aware() {
        let sum = sum_of(vec![(vec![v(0), v(1)], 3), (vec![v(1), v(0)], 4)]);
        assert_eq!(sum.num_clauses(), 1);
        assert_eq!(sum.weights(), &[rat(7)]);
        let min = WeightedDnf::from_weighted_clauses(
            AggregateKind::Min,
            vec![(vec![v(0)], rat(3)), (vec![v(0)], rat(4))],
        );
        assert_eq!(min.weights(), &[rat(3)]);
        let max = WeightedDnf::from_weighted_clauses(
            AggregateKind::Max,
            vec![(vec![v(0)], rat(3)), (vec![v(0)], rat(4))],
        );
        assert_eq!(max.weights(), &[rat(4)]);
        // Presentation order never matters.
        let a = sum_of(vec![(vec![v(2)], 1), (vec![v(0), v(1)], 5)]);
        let b = sum_of(vec![(vec![v(0), v(1)], 5), (vec![v(2)], 1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn world_evaluation_follows_the_conventions() {
        let w = WeightedDnf::from_weighted_clauses(
            AggregateKind::Min,
            vec![(vec![v(0)], rat(5)), (vec![v(1)], rat(-2))],
        );
        assert_eq!(w.evaluate(&Assignment::empty()), rat(0)); // Empty group.
        assert_eq!(w.evaluate(&Assignment::from_true_vars([v(0)])), rat(5));
        assert_eq!(w.evaluate(&Assignment::from_true_vars([v(0), v(1)])), rat(-2));
        let s = sum_of(vec![(vec![v(0)], 5), (vec![v(1)], -2)]);
        assert_eq!(s.evaluate(&Assignment::from_true_vars([v(0), v(1)])), rat(3));
    }

    #[test]
    fn count_banzhaf_reduces_to_boolean_on_single_clause() {
        // A single clause behaves like the Boolean function scaled by 1.
        let w = WeightedDnf::count_of_clauses(vec![vec![v(0), v(1)]]);
        let boolean = Dnf::from_clauses(vec![vec![v(0), v(1)]]);
        for x in [v(0), v(1)] {
            assert_eq!(
                w.brute_force_aggregate_banzhaf(x),
                Rational::from(Int::from(boolean.brute_force_banzhaf(x).to_i128().unwrap() as i64))
            );
        }
    }

    #[test]
    fn sum_banzhaf_matches_the_linear_formula() {
        // B(x) = Σ_{c ∋ x} w_c · 2^{n−|c|} for SUM/COUNT.
        let w = sum_of(vec![(vec![v(0), v(1)], 3), (vec![v(0), v(2)], -2), (vec![v(3)], 7)]);
        let n = w.num_vars();
        for x in w.universe().iter() {
            let mut expect = Rational::zero();
            for (c, weight) in w.dnf().clauses().iter().zip(w.weights()) {
                if c.contains(x) {
                    expect += &weight.mul_natural(&Natural::pow2(n - c.len()));
                }
            }
            assert_eq!(w.brute_force_aggregate_banzhaf(x), expect, "var {x}");
        }
    }

    #[test]
    fn min_attribution_can_be_negative() {
        // Adding the fact enabling the small value drags the minimum down.
        let w = WeightedDnf::from_weighted_clauses(
            AggregateKind::Min,
            vec![(vec![v(0)], rat(10)), (vec![v(1)], rat(1))],
        );
        assert!(w.brute_force_aggregate_banzhaf(v(1)).is_negative());
        // Concretely: worlds {} → {v1}: 0→1 (+1); {v0} → {v0,v1}: 10→1 (−9).
        assert_eq!(w.brute_force_aggregate_banzhaf(v(1)), rat(-8));
    }

    #[test]
    fn threshold_subdnfs_partition_the_skeleton() {
        let w = WeightedDnf::from_weighted_clauses(
            AggregateKind::Max,
            vec![(vec![v(0)], rat(1)), (vec![v(1)], rat(2)), (vec![v(2)], rat(2))],
        );
        let thetas = w.distinct_weights();
        assert_eq!(thetas, vec![rat(1), rat(2)]);
        assert_eq!(w.threshold_ge(&rat(1)), *w.dnf());
        assert_eq!(w.threshold_ge(&rat(2)).num_clauses(), 2);
        assert_eq!(w.threshold_lt(&rat(2)).num_clauses(), 1);
        // Threshold DNFs keep the full universe so model counts stay
        // comparable.
        assert_eq!(w.threshold_ge(&rat(2)).num_vars(), 3);
    }

    #[test]
    #[should_panic(expected = "endogenous")]
    fn empty_clauses_are_rejected() {
        WeightedDnf::from_weighted_clauses(AggregateKind::Sum, vec![(vec![], rat(1))]);
    }
}
