//! Borrowed views of the clauses of a positive DNF.
//!
//! A [`Dnf`](crate::Dnf) stores its clauses flat: one buffer holds every
//! clause's variables, clause after clause, and one `u32` end offset per
//! clause marks where each stops. Nothing owns a single clause, so a clause
//! is read through [`Clause`], a `Copy` view of its sorted, deduplicated
//! variables, and the clause list through [`Clauses`], which iterates those
//! views in the DNF's canonical clause order. [`canonicalize_tail`] sorts a
//! clause in place at the end of such a buffer, for the DNF's own builders
//! and for the query evaluator's grounding buffer alike.

use crate::Var;
use std::fmt;

/// One clause of a [`Dnf`](crate::Dnf): a conjunction of (positive)
/// variables, viewed in place.
///
/// The variables are sorted and deduplicated. The *empty* clause is the
/// constant `true` conjunction; a DNF containing it is a tautology. Clauses
/// compare as their variable slices do, which is the DNF's clause order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Clause<'a> {
    vars: &'a [Var],
}

impl<'a> Clause<'a> {
    /// Number of variables in the clause.
    pub fn len(self) -> usize {
        self.vars.len()
    }

    /// `true` iff the clause is the empty conjunction (constant true).
    pub fn is_empty(self) -> bool {
        self.vars.is_empty()
    }

    /// Membership test.
    pub fn contains(self, v: Var) -> bool {
        self.vars.binary_search(&v).is_ok()
    }

    /// Iterates over the clause's variables in ascending order.
    pub fn iter(self) -> std::iter::Copied<std::slice::Iter<'a, Var>> {
        self.vars.iter().copied()
    }

    /// The sorted variable slice.
    pub fn vars(self) -> &'a [Var] {
        self.vars
    }

    /// `true` iff every variable of `self` is contained in `other`
    /// (i.e. `other` implies `self`, so `other` is absorbed by `self`).
    pub fn subsumes(self, other: Clause<'_>) -> bool {
        self.len() <= other.len() && self.iter().all(|v| other.contains(v))
    }
}

/// Sorts and deduplicates the clause `vars[start..]` in place and truncates
/// `vars` to the variables kept: the canonical form of a clause just
/// appended to a flat variable buffer. A clause already strictly increasing
/// is kept after one linear check.
pub fn canonicalize_tail(vars: &mut Vec<Var>, start: usize) {
    if strictly_increasing(&vars[start..]) {
        return;
    }
    vars[start..].sort_unstable();
    let mut kept = start;
    for read in start..vars.len() {
        if kept == start || vars[read] != vars[kept - 1] {
            vars[kept] = vars[read];
            kept += 1;
        }
    }
    vars.truncate(kept);
}

/// `true` iff `vars` is sorted and holds no repeat.
pub(crate) fn strictly_increasing(vars: &[Var]) -> bool {
    vars.windows(2).all(|w| w[0] < w[1])
}

impl fmt::Debug for Clause<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "⊤");
        }
        let parts: Vec<String> = self.vars.iter().map(ToString::to_string).collect();
        write!(f, "{}", parts.join("∧"))
    }
}

impl fmt::Display for Clause<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The clause list of a [`Dnf`](crate::Dnf): its flat variable buffer and
/// clause end offsets, borrowed.
#[derive(Clone, Copy)]
pub struct Clauses<'a> {
    vars: &'a [Var],
    ends: &'a [u32],
}

impl<'a> Clauses<'a> {
    /// The clauses of `vars` split at `ends`: clause `i` is
    /// `vars[ends[i - 1]..ends[i]]` (from 0 for `i = 0`).
    pub(crate) fn new(vars: &'a [Var], ends: &'a [u32]) -> Self {
        Clauses { vars, ends }
    }

    /// Number of clauses (1 for the constant `true`, whose one clause is
    /// empty).
    pub fn len(self) -> usize {
        self.ends.len()
    }

    /// `true` iff there are no clauses (the constant `false`).
    pub fn is_empty(self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th clause, if there is one.
    pub fn get(self, i: usize) -> Option<Clause<'a>> {
        let end = *self.ends.get(i)? as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        Some(Clause { vars: &self.vars[start..end] })
    }

    /// Iterates over the clauses in order.
    pub fn iter(self) -> ClauseIter<'a> {
        ClauseIter { vars: self.vars, ends: self.ends.iter(), start: 0 }
    }
}

impl<'a> IntoIterator for Clauses<'a> {
    type Item = Clause<'a>;
    type IntoIter = ClauseIter<'a>;
    fn into_iter(self) -> ClauseIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Clauses<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the [`Clause`] views of a [`Clauses`] list.
#[derive(Clone)]
pub struct ClauseIter<'a> {
    vars: &'a [Var],
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Iterator for ClauseIter<'a> {
    type Item = Clause<'a>;

    fn next(&mut self) -> Option<Clause<'a>> {
        let end = *self.ends.next()? as usize;
        let vars = &self.vars[self.start..end];
        self.start = end;
        Some(Clause { vars })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for ClauseIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dnf;

    fn vars(ids: &[u32]) -> Vec<Var> {
        ids.iter().map(|&i| Var(i)).collect()
    }

    /// The only clause of the DNF with the one clause `ids`.
    fn single(ids: &[u32]) -> Dnf {
        Dnf::from_clauses([vars(ids)])
    }

    #[test]
    fn construction() {
        let phi = single(&[3, 1, 3]);
        let c = phi.clauses().get(0).unwrap();
        assert_eq!(c.vars(), &[Var(1), Var(3)]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        // The views split the buffer at the ends: [1, 3], [], [2, 4, 5].
        let buffer = vars(&[1, 3, 2, 4, 5]);
        let clauses = Clauses::new(&buffer, &[2, 2, 5]);
        assert_eq!(clauses.len(), 3);
        assert_eq!(clauses.iter().len(), 3);
        let all: Vec<&[Var]> = clauses.iter().map(Clause::vars).collect();
        assert_eq!(all, vec![&buffer[..2], &[][..], &buffer[2..]]);
        assert!(clauses.get(1).unwrap().is_empty());
        assert!(clauses.get(3).is_none());
        assert!(Clauses::new(&[], &[]).is_empty());
    }

    #[test]
    fn without_and_contains() {
        let phi = single(&[1, 2, 3]);
        let c = phi.clauses().get(0).unwrap();
        assert!(c.contains(Var(2)));
        assert_eq!(c.iter().collect::<Vec<_>>(), vars(&[1, 2, 3]));
        // Conditioning on `x2 := 1` leaves the clause without x2.
        let cond = phi.condition(Var(2), true);
        let d = cond.clauses().get(0).unwrap();
        assert_eq!(d.vars(), &[Var(1), Var(3)]);
        assert!(!d.contains(Var(2)));
    }

    #[test]
    fn subsumption() {
        let phi = Dnf::from_clauses([vars(&[1]), vars(&[1, 2])]);
        let (small, big) = (phi.clauses().get(0).unwrap(), phi.clauses().get(1).unwrap());
        assert!(small.subsumes(big));
        assert!(!big.subsumes(small));
        // The empty clause (the constant `true`'s) subsumes every clause.
        let truth = Dnf::constant_true(crate::VarSet::empty());
        assert!(truth.clauses().get(0).unwrap().subsumes(big));
        assert!(big.subsumes(big));
        // Clauses order as their variable slices: [1] < [1, 2] < [2].
        assert!(small < big && big.vars() < &[Var(2)][..]);
    }

    #[test]
    fn display() {
        assert_eq!(single(&[2, 1]).clauses().get(0).unwrap().to_string(), "x1∧x2");
        let truth = Dnf::constant_true(crate::VarSet::empty());
        assert_eq!(truth.clauses().get(0).unwrap().to_string(), "⊤");
        let buffer = vars(&[1, 2]);
        assert_eq!(format!("{:?}", Clauses::new(&buffer, &[0, 2])), "[⊤, x1∧x2]");
    }
}
