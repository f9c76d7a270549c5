//! Positive DNF functions with an explicit variable universe, stored flat.
//!
//! A [`Dnf`] keeps every clause's variables in one `Vec<Var>`, clause after
//! clause, with one `u32` end offset per clause, next to its universe: three
//! buffers however many clauses it has. Readers borrow the clauses through
//! the [`Clauses`] list view and its `Copy` [`Clause`] views, so building,
//! cloning and dropping a lineage costs one allocation per buffer rather
//! than one per clause.

use crate::clause::{canonicalize_tail, strictly_increasing};
use crate::{Assignment, Clause, Clauses, Var, VarSet};
use std::cmp::Ordering;
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
/// * every clause is sorted and deduplicated, and the clauses are sorted
///   (as variable slices) and deduplicated;
/// * a tautology is represented by the single empty clause;
/// * the constant `false` is represented by an empty clause list.
#[derive(Clone, PartialEq, Eq)]
pub struct Dnf {
    universe: VarSet,
    /// Every clause's variables, clause after clause.
    vars: Vec<Var>,
    /// Clause `i` is `vars[ends[i - 1]..ends[i]]` (from 0 for `i = 0`).
    ends: Vec<u32>,
}

impl Dnf {
    /// Builds a DNF from clause variable lists. The universe is the set of
    /// variables occurring in the clauses.
    pub fn from_clauses<I, C>(clauses: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: IntoIterator<Item = Var>,
    {
        let clauses = clauses.into_iter();
        let mut dnf = Dnf::with_capacity(VarSet::empty(), clauses.size_hint().0, 0);
        for clause in clauses {
            dnf.push_clause(clause);
        }
        dnf.with_used_universe().canonical()
    }

    /// Builds a DNF from borrowed clause slices, each sorted and free of
    /// repeats, as [`Clause::vars`] and [`canonicalize_tail`] leave them;
    /// the clauses may come in any order and repeat. The universe is the set
    /// of variables occurring in the clauses.
    ///
    /// A first pass over `clauses` sizes the variable buffer and the clause
    /// ends exactly, so the DNF costs one allocation per buffer (and one for
    /// the universe) when the clauses already come in canonical order;
    /// otherwise the clause list is re-sorted once.
    ///
    /// # Panics
    /// In debug builds, panics if a clause is not strictly increasing.
    pub fn from_clause_slices<'a, I>(clauses: I) -> Self
    where
        I: IntoIterator<Item = &'a [Var]>,
        I::IntoIter: Clone,
    {
        let clauses = clauses.into_iter();
        let (count, size) = clauses.clone().fold((0, 0), |(n, s), c| (n + 1, s + c.len()));
        let mut dnf = Dnf::with_capacity(VarSet::empty(), count, size);
        for clause in clauses {
            dnf.push_sorted(clause);
        }
        dnf.with_used_universe().canonical()
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
        let clauses = clauses.into_iter();
        let mut dnf = Dnf::with_capacity(universe, clauses.size_hint().0, 0);
        for clause in clauses {
            dnf.push_clause(clause);
        }
        for &v in &dnf.vars {
            assert!(dnf.universe.contains(v), "clause variable {v} outside the universe");
        }
        dnf.canonical()
    }

    /// An empty clause list over `universe` with room for `clauses` clauses
    /// of `size` variables in all: the start of a DNF built clause by clause
    /// with [`push_clause`](Dnf::push_clause) or
    /// [`push_sorted`](Dnf::push_sorted).
    pub(crate) fn with_capacity(universe: VarSet, clauses: usize, size: usize) -> Self {
        Dnf { universe, vars: Vec::with_capacity(size), ends: Vec::with_capacity(clauses) }
    }

    /// Appends a clause given as arbitrary variables, sorting and
    /// deduplicating them in place. The clause list may leave canonical form
    /// until [`canonical`](Dnf::canonical) restores it.
    pub(crate) fn push_clause(&mut self, clause: impl IntoIterator<Item = Var>) {
        let start = self.vars.len();
        self.vars.extend(clause);
        canonicalize_tail(&mut self.vars, start);
        self.close_clause();
    }

    /// Appends a clause whose variables are already sorted and distinct.
    pub(crate) fn push_sorted(&mut self, clause: &[Var]) {
        debug_assert!(strictly_increasing(clause), "clause not sorted");
        self.vars.extend_from_slice(clause);
        self.close_clause();
    }

    fn close_clause(&mut self) {
        let end = u32::try_from(self.vars.len()).expect("fewer than 2^32 clause variables");
        self.ends.push(end);
    }

    /// The same clause list over the variables occurring in it.
    pub(crate) fn with_used_universe(mut self) -> Dnf {
        self.universe = self.used_vars();
        self
    }

    /// The `i`-th clause's variables.
    pub(crate) fn clause(&self, i: usize) -> &[Var] {
        self.clauses().get(i).expect("a clause index in range").vars()
    }

    /// Restores the canonical form after clauses were pushed: a list with an
    /// empty clause becomes the single empty clause, and a list out of
    /// order is sorted and deduplicated. A list already strictly increasing
    /// (sorted *and* deduplicated), as conditioning on `v := 0` or a sorted
    /// evaluator group leaves it, is kept after one linear check.
    pub(crate) fn canonical(self) -> Dnf {
        if self.ends.first() == Some(&0) || self.ends.windows(2).any(|w| w[0] == w[1]) {
            return Dnf::constant_true(self.universe);
        }
        let n = self.ends.len();
        if (1..n).all(|i| self.clause(i - 1) < self.clause(i)) {
            return self;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| self.clause(a).cmp(self.clause(b)));
        order.dedup_by(|a, b| self.clause(*a) == self.clause(*b));
        let mut sorted = Dnf::with_capacity(VarSet::empty(), order.len(), self.vars.len());
        for &i in &order {
            sorted.push_sorted(self.clause(i));
        }
        sorted.universe = self.universe;
        sorted
    }

    /// The constant `true` function over the given universe.
    pub fn constant_true(universe: VarSet) -> Self {
        Dnf { universe, vars: Vec::new(), ends: vec![0] }
    }

    /// The constant `false` function over the given universe.
    pub fn constant_false(universe: VarSet) -> Self {
        Dnf { universe, vars: Vec::new(), ends: Vec::new() }
    }

    /// The single-variable function `v`.
    pub fn variable(v: Var) -> Self {
        Dnf { universe: VarSet::from_sorted(vec![v]), vars: vec![v], ends: vec![1] }
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
            self.ends.len()
        }
    }

    /// Total number of literal occurrences (the `|φ|` size measure): the
    /// length of the variable buffer, read in `O(1)`.
    pub fn size(&self) -> usize {
        self.vars.len()
    }

    /// The clauses of the function, in canonical order.
    pub fn clauses(&self) -> Clauses<'_> {
        Clauses::new(&self.vars, &self.ends)
    }

    /// `true` iff the function is the constant `true`.
    pub fn is_true(&self) -> bool {
        self.ends.first() == Some(&0)
    }

    /// `true` iff the function is the constant `false`.
    pub fn is_false(&self) -> bool {
        self.ends.is_empty()
    }

    /// `true` iff the function is a constant.
    pub fn is_constant(&self) -> bool {
        self.is_true() || self.is_false()
    }

    /// `true` iff the function is a single positive literal over a singleton
    /// universe.
    pub fn is_single_literal(&self) -> Option<Var> {
        (self.universe.len() == 1 && self.ends.len() == 1 && self.vars.len() == 1)
            .then(|| self.vars[0])
    }

    /// The set of variables that actually occur in some clause.
    pub fn used_vars(&self) -> VarSet {
        self.vars.iter().copied().collect()
    }

    /// `true` iff the variable occurs in some clause.
    pub fn uses_var(&self, v: Var) -> bool {
        self.vars.contains(&v)
    }

    /// Evaluates the function under an assignment.
    pub fn evaluate(&self, assignment: &Assignment) -> bool {
        self.clauses().iter().any(|c| c.iter().all(|v| assignment.get(v)))
    }

    /// Number of occurrences of each used variable across all clauses.
    pub fn occurrence_counts(&self) -> HashMap<Var, usize> {
        let mut counts = HashMap::new();
        for &v in &self.vars {
            *counts.entry(v).or_insert(0) += 1;
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
        // Exact preallocation: setting `v := 1` keeps every clause, those
        // holding `v` one variable shorter; setting `v := 0` keeps exactly
        // the clauses avoiding `v`.
        let (mut hits, mut hit_size) = (0, 0);
        for c in self.clauses().iter().filter(|c| c.contains(v)) {
            hits += 1;
            hit_size += c.len();
        }
        let (clauses, size) = if value {
            (self.ends.len(), self.vars.len() - hits)
        } else {
            (self.ends.len() - hits, self.vars.len() - hit_size)
        };
        let mut out = Dnf::with_capacity(universe, clauses, size);
        for c in self.clauses() {
            match c.vars().binary_search(&v) {
                Ok(at) if value => {
                    out.vars.extend_from_slice(&c.vars()[..at]);
                    out.vars.extend_from_slice(&c.vars()[at + 1..]);
                    out.close_clause();
                }
                // value == false: the clause is falsified and dropped.
                Ok(_) => {}
                Err(_) => out.push_sorted(c.vars()),
            }
        }
        // Dropping clauses keeps a canonical list canonical; shortening them
        // can reorder, repeat or empty some.
        if value {
            out.canonical()
        } else {
            out
        }
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
        Dnf { universe, vars: self.vars.clone(), ends: self.ends.clone() }
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
        Dnf { universe: self.used_vars(), vars: self.vars.clone(), ends: self.ends.clone() }
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
        // Shorter clauses absorb longer ones; process by increasing length.
        let mut by_len: Vec<Clause<'_>> = self.clauses().iter().collect();
        by_len.sort_by_key(|c| c.len());
        let mut kept: Vec<Clause<'_>> = Vec::with_capacity(by_len.len());
        for c in by_len {
            if !kept.iter().any(|k| k.subsumes(c)) {
                kept.push(c);
            }
        }
        let size = kept.iter().map(|c| c.len()).sum();
        let mut out = Dnf::with_capacity(self.universe.clone(), kept.len(), size);
        for c in kept {
            out.push_sorted(c.vars());
        }
        out.canonical()
    }

    /// Disjunction of two functions over the union of their universes: one
    /// merge of the two sorted clause lists.
    pub fn or(&self, other: &Dnf) -> Dnf {
        let universe = self.universe.union(&other.universe);
        if self.is_true() || other.is_true() {
            return Dnf::constant_true(universe);
        }
        let mut out = Dnf::with_capacity(
            universe,
            self.ends.len() + other.ends.len(),
            self.vars.len() + other.vars.len(),
        );
        let (mut a, mut b) = (self.clauses().iter().peekable(), other.clauses().iter().peekable());
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.cmp(y) {
                    Ordering::Less => a.next(),
                    Ordering::Greater => b.next(),
                    Ordering::Equal => {
                        b.next();
                        a.next()
                    }
                },
                (Some(_), None) => a.next(),
                (None, _) => b.next(),
            };
            match next {
                Some(clause) => out.push_sorted(clause.vars()),
                None => return out,
            }
        }
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
        let mut out = Dnf::with_capacity(
            universe,
            self.ends.len() * other.ends.len(),
            self.vars.len() * other.ends.len() + other.vars.len() * self.ends.len(),
        );
        for a in self.clauses() {
            for b in other.clauses() {
                out.push_clause(a.iter().chain(b.iter()));
            }
        }
        out.canonical()
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
        let parts: Vec<String> = self.clauses().iter().map(|c| format!("({c})")).collect();
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
        assert_eq!(a.clauses().get(0).unwrap().vars(), &[v(0)]);
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
