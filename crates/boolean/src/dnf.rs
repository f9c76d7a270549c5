//! Positive DNF functions with an explicit variable universe.

use crate::{Assignment, Clause, Var, VarSet};
use std::collections::HashMap;
use std::fmt;

/// A positive Boolean function in disjunctive normal form.
///
/// The function is defined over an explicit *universe* of variables, which may
/// strictly include the variables that occur in its clauses. This matters for
/// model counting: conditioning `φ[x := 0]` may drop clauses, but the
/// resulting function is still defined over the remaining `n-1` variables of
/// the universe (Example 13 of the paper).
///
/// Canonical form:
/// * clauses are sorted and deduplicated;
/// * a tautology is represented by the single empty clause;
/// * the constant `false` is represented by an empty clause list.
#[derive(Clone, PartialEq, Eq)]
pub struct Dnf {
    universe: VarSet,
    clauses: Vec<Clause>,
}

impl Dnf {
    /// Builds a DNF from clause variable lists. The universe is the set of
    /// variables occurring in the clauses.
    pub fn from_clauses<I, C>(clauses: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: IntoIterator<Item = Var>,
    {
        let clauses: Vec<Clause> = clauses.into_iter().map(Clause::new).collect();
        let universe: VarSet = clauses.iter().flat_map(Clause::iter).collect();
        Dnf::from_parts(universe, clauses)
    }

    /// Builds a DNF from clauses over an explicitly given universe.
    ///
    /// # Panics
    /// Panics if a clause mentions a variable outside the universe.
    pub fn from_clauses_with_universe<I, C>(clauses: I, universe: VarSet) -> Self
    where
        I: IntoIterator<Item = C>,
        C: IntoIterator<Item = Var>,
    {
        let clauses: Vec<Clause> = clauses.into_iter().map(Clause::new).collect();
        for c in &clauses {
            for v in c.iter() {
                assert!(universe.contains(v), "clause variable {v} outside the universe");
            }
        }
        Dnf::from_parts(universe, clauses)
    }

    /// Internal constructor enforcing the canonical form.
    pub(crate) fn from_parts(universe: VarSet, mut clauses: Vec<Clause>) -> Self {
        if clauses.iter().any(Clause::is_empty) {
            return Dnf { universe, clauses: vec![Clause::empty()] };
        }
        // Skip the O(n log n) sort when the input is provably canonical
        // already — strictly increasing means sorted *and* deduplicated.
        // Conditioning on `v := 0` only drops clauses from a canonical list
        // (order and uniqueness preserved), so the hottest construction path
        // during d-tree compilation takes this linear check alone.
        if !clauses.windows(2).all(|w| w[0] < w[1]) {
            clauses.sort_unstable();
            clauses.dedup();
        }
        Dnf { universe, clauses }
    }

    /// The constant `true` function over the given universe.
    pub fn constant_true(universe: VarSet) -> Self {
        Dnf { universe, clauses: vec![Clause::empty()] }
    }

    /// The constant `false` function over the given universe.
    pub fn constant_false(universe: VarSet) -> Self {
        Dnf { universe, clauses: Vec::new() }
    }

    /// The single-variable function `v`.
    pub fn variable(v: Var) -> Self {
        Dnf { universe: VarSet::from_iter([v]), clauses: vec![Clause::new([v])] }
    }

    /// The universe the function is defined over.
    pub fn universe(&self) -> &VarSet {
        &self.universe
    }

    /// Number of variables in the universe.
    pub fn num_vars(&self) -> usize {
        self.universe.len()
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        if self.is_true() {
            0
        } else {
            self.clauses.len()
        }
    }

    /// Total number of literal occurrences (the `|φ|` size measure).
    pub fn size(&self) -> usize {
        self.clauses.iter().map(Clause::len).sum()
    }

    /// The clauses of the function.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// `true` iff the function is the constant `true`.
    pub fn is_true(&self) -> bool {
        self.clauses.first().is_some_and(Clause::is_empty)
    }

    /// `true` iff the function is the constant `false`.
    pub fn is_false(&self) -> bool {
        self.clauses.is_empty()
    }

    /// `true` iff the function is a constant.
    pub fn is_constant(&self) -> bool {
        self.is_true() || self.is_false()
    }

    /// `true` iff the function is a single positive literal over a singleton
    /// universe.
    pub fn is_single_literal(&self) -> Option<Var> {
        if self.universe.len() == 1 && self.clauses.len() == 1 && self.clauses[0].len() == 1 {
            Some(self.clauses[0].vars()[0])
        } else {
            None
        }
    }

    /// The set of variables that actually occur in some clause.
    pub fn used_vars(&self) -> VarSet {
        self.clauses.iter().flat_map(Clause::iter).collect()
    }

    /// `true` iff the variable occurs in some clause.
    pub fn uses_var(&self, v: Var) -> bool {
        self.clauses.iter().any(|c| c.contains(v))
    }

    /// Evaluates the function under an assignment.
    pub fn evaluate(&self, assignment: &Assignment) -> bool {
        self.clauses.iter().any(|c| c.iter().all(|v| assignment.get(v)))
    }

    /// Number of occurrences of each used variable across all clauses.
    pub fn occurrence_counts(&self) -> HashMap<Var, usize> {
        let mut counts = HashMap::new();
        for c in &self.clauses {
            for v in c.iter() {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Conditioning: the function `φ[v := value]` over the universe minus `v`.
    pub fn condition(&self, v: Var, value: bool) -> Dnf {
        let mut universe = self.universe.clone();
        universe.remove(v);
        if self.is_true() {
            return Dnf::constant_true(universe);
        }
        // Exact preallocation: setting `v := 1` keeps every clause (some
        // shortened), setting `v := 0` keeps exactly the clauses avoiding v.
        let kept = if value {
            self.clauses.len()
        } else {
            self.clauses.iter().filter(|c| !c.contains(v)).count()
        };
        let mut clauses = Vec::with_capacity(kept);
        for c in &self.clauses {
            if c.contains(v) {
                if value {
                    clauses.push(c.without(v));
                }
                // value == false: the clause is falsified and dropped.
            } else {
                clauses.push(c.clone());
            }
        }
        Dnf::from_parts(universe, clauses)
    }

    /// Returns the same function defined over a larger universe.
    ///
    /// # Panics
    /// Panics if the new universe does not contain the old one.
    pub fn widen_universe(&self, universe: VarSet) -> Dnf {
        assert!(
            self.universe.is_subset(&universe),
            "widen_universe: new universe must contain the old one"
        );
        Dnf { universe, clauses: self.clauses.clone() }
    }

    /// The same clauses over the universe of variables that actually occur.
    ///
    /// [`condition`](Dnf::condition) can orphan variables: dropping the
    /// clauses that mention `v` may leave other variables of the universe
    /// without any occurrence. Banzhaf values and model counts scale with
    /// `2^(unused universe variables)`, so a conditioned lineage must be
    /// restricted to its used variables before it can be compared — or
    /// cached — interchangeably with a lineage built fresh from its clauses.
    pub fn restrict_to_used(&self) -> Dnf {
        Dnf { universe: self.used_vars(), clauses: self.clauses.clone() }
    }

    /// Removes clauses that are subsumed by (are supersets of) other clauses.
    ///
    /// Absorption (`x ∨ (x ∧ y) = x`) does not change the function but can
    /// shrink lineages produced by union queries considerably. Quadratic in
    /// the number of clauses, so it is exposed as an explicit step rather than
    /// applied on every construction.
    pub fn absorb(&self) -> Dnf {
        if self.is_constant() {
            return self.clone();
        }
        let mut kept: Vec<Clause> = Vec::with_capacity(self.clauses.len());
        // Shorter clauses absorb longer ones; process by increasing length.
        let mut by_len = self.clauses.clone();
        by_len.sort_by_key(Clause::len);
        'outer: for c in by_len {
            for k in &kept {
                if k.subsumes(&c) {
                    continue 'outer;
                }
            }
            kept.push(c);
        }
        Dnf::from_parts(self.universe.clone(), kept)
    }

    /// Disjunction of two functions over the union of their universes.
    pub fn or(&self, other: &Dnf) -> Dnf {
        let universe = self.universe.union(&other.universe);
        if self.is_true() || other.is_true() {
            return Dnf::constant_true(universe);
        }
        let clauses = self.clauses.iter().chain(other.clauses.iter()).cloned().collect();
        Dnf::from_parts(universe, clauses)
    }

    /// Conjunction of two functions over the union of their universes
    /// (cartesian product of clauses).
    pub fn and(&self, other: &Dnf) -> Dnf {
        let universe = self.universe.union(&other.universe);
        if self.is_false() || other.is_false() {
            return Dnf::constant_false(universe);
        }
        if self.is_true() {
            return other.widen_universe(universe);
        }
        if other.is_true() {
            return self.widen_universe(universe);
        }
        let mut clauses = Vec::with_capacity(self.clauses.len() * other.clauses.len());
        for a in &self.clauses {
            for b in &other.clauses {
                clauses.push(Clause::new(a.iter().chain(b.iter())));
            }
        }
        Dnf::from_parts(universe, clauses)
    }
}

impl fmt::Debug for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_false() {
            return write!(f, "⊥[{} vars]", self.num_vars());
        }
        if self.is_true() {
            return write!(f, "⊤[{} vars]", self.num_vars());
        }
        let parts: Vec<String> = self.clauses.iter().map(|c| format!("({c})")).collect();
        write!(f, "{} [{} vars]", parts.join(" ∨ "), self.num_vars())
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var(i)
    }

    /// φ = (x ∧ y) ∨ (x ∧ z), Example 9.
    fn example9() -> Dnf {
        Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)]])
    }

    #[test]
    fn construction_and_stats() {
        let phi = example9();
        assert_eq!(phi.num_vars(), 3);
        assert_eq!(phi.num_clauses(), 2);
        assert_eq!(phi.size(), 4);
        assert!(!phi.is_constant());
        assert!(phi.uses_var(v(0)));
        assert!(!phi.uses_var(v(7)));
    }

    #[test]
    fn constants() {
        let u = VarSet::from_iter([v(0), v(1)]);
        let t = Dnf::constant_true(u.clone());
        let f = Dnf::constant_false(u.clone());
        assert!(t.is_true() && !t.is_false());
        assert!(f.is_false() && !f.is_true());
        assert_eq!(t.num_vars(), 2);
        // A DNF containing an empty clause collapses to the canonical true.
        let phi = Dnf::from_clauses_with_universe(vec![vec![v(0)], vec![]], u);
        assert!(phi.is_true());
        assert_eq!(phi.num_clauses(), 0);
    }

    #[test]
    fn evaluation() {
        let phi = example9();
        assert!(!phi.evaluate(&Assignment::empty()));
        assert!(!phi.evaluate(&Assignment::from_true_vars([v(1), v(2)])));
        assert!(phi.evaluate(&Assignment::from_true_vars([v(0), v(1)])));
        assert!(phi.evaluate(&Assignment::from_true_vars([v(0), v(2)])));
        assert!(phi.evaluate(&Assignment::from_true_vars([v(0), v(1), v(2)])));
        assert!(!phi.evaluate(&Assignment::from_true_vars([v(0)])));
    }

    #[test]
    fn conditioning_shrinks_universe() {
        let phi = example9();
        // φ[x := 1] = y ∨ z over {y, z}.
        let pos = phi.condition(v(0), true);
        assert_eq!(pos.num_vars(), 2);
        assert_eq!(pos.num_clauses(), 2);
        assert!(pos.evaluate(&Assignment::from_true_vars([v(1)])));
        // φ[x := 0] = false over {y, z}.
        let neg = phi.condition(v(0), false);
        assert!(neg.is_false());
        assert_eq!(neg.num_vars(), 2);
        // Conditioning on y keeps the x∧z clause intact.
        let cy = phi.condition(v(1), true);
        assert_eq!(cy.num_clauses(), 2);
        // One of the clauses is now just x; after absorption only x remains.
        assert_eq!(cy.absorb().num_clauses(), 1);
    }

    #[test]
    fn conditioning_example13() {
        // φ = (x ∧ y) ∨ (x ∧ z) ∨ u;  φ[x := 0] = u but over three variables.
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]);
        let cond = phi.condition(v(0), false);
        assert_eq!(cond.num_vars(), 3);
        assert_eq!(cond.num_clauses(), 1);
        assert_eq!(cond.brute_force_model_count().to_u64(), Some(4));
    }

    #[test]
    fn restricting_to_used_drops_orphaned_variables() {
        // φ[x := 0] = u over {y, z, u}; y and z are orphaned and inflate the
        // model count until the universe is restricted to the used variables.
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]);
        let cond = phi.condition(v(0), false).restrict_to_used();
        assert_eq!(cond.num_vars(), 1);
        assert_eq!(cond.num_clauses(), 1);
        assert_eq!(cond.brute_force_model_count().to_u64(), Some(1));
        assert_eq!(cond, Dnf::from_clauses(vec![vec![v(3)]]));
        // A lineage whose universe already equals its used variables is
        // unchanged.
        assert_eq!(phi.restrict_to_used(), phi);
    }

    #[test]
    fn absorption() {
        // x ∨ (x ∧ y) = x
        let phi = Dnf::from_clauses(vec![vec![v(0)], vec![v(0), v(1)]]);
        let a = phi.absorb();
        assert_eq!(a.num_clauses(), 1);
        assert_eq!(a.clauses()[0].vars(), &[v(0)]);
        assert_eq!(a.num_vars(), 2); // Universe is unchanged.
                                     // Model counts agree.
        assert_eq!(phi.brute_force_model_count(), a.brute_force_model_count());
    }

    #[test]
    fn or_and_composition() {
        let x = Dnf::variable(v(0));
        let y = Dnf::variable(v(1));
        let z = Dnf::variable(v(2));
        let xy_or_xz = x.and(&y).or(&x.and(&z));
        assert_eq!(xy_or_xz, example9());
        let t = Dnf::constant_true(VarSet::from_iter([v(9)]));
        assert!(x.or(&t).is_true());
        assert_eq!(x.and(&t).num_vars(), 2);
        let f = Dnf::constant_false(VarSet::from_iter([v(9)]));
        assert!(x.and(&f).is_false());
        assert_eq!(x.or(&f).num_clauses(), 1);
    }

    #[test]
    fn duplicate_clauses_are_merged() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(0)]]);
        assert_eq!(phi.num_clauses(), 1);
    }

    #[test]
    fn is_single_literal() {
        assert_eq!(Dnf::variable(v(3)).is_single_literal(), Some(v(3)));
        assert_eq!(example9().is_single_literal(), None);
        // A single-clause function over a wider universe is not a literal leaf.
        let phi =
            Dnf::from_clauses_with_universe(vec![vec![v(0)]], VarSet::from_iter([v(0), v(1)]));
        assert_eq!(phi.is_single_literal(), None);
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn universe_mismatch_panics() {
        Dnf::from_clauses_with_universe(vec![vec![v(5)]], VarSet::from_iter([v(0)]));
    }
}
