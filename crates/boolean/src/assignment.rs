//! Truth assignments, identified with the set of variables mapped to 1.

use crate::{Var, VarSet};

/// A truth assignment over some variable universe, represented (as in the
/// paper) by the set of variables mapped to `1`; everything else is `0`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Assignment {
    trues: VarSet,
}

impl Assignment {
    /// The all-zero assignment.
    pub fn empty() -> Self {
        Assignment { trues: VarSet::empty() }
    }

    /// Builds an assignment from the set of variables mapped to 1.
    pub fn from_true_vars<I: IntoIterator<Item = Var>>(vars: I) -> Self {
        Assignment { trues: VarSet::from_iter(vars) }
    }

    /// The value assigned to `v`.
    pub fn get(&self, v: Var) -> bool {
        self.trues.contains(v)
    }

    /// Sets `v` to `value`.
    pub fn set(&mut self, v: Var, value: bool) {
        if value {
            self.trues.insert(v);
        } else {
            self.trues.remove(v);
        }
    }

    /// Number of variables mapped to 1.
    pub fn weight(&self) -> usize {
        self.trues.len()
    }

    /// Returns a copy with `v` additionally set to 1.
    pub fn with(&self, v: Var) -> Assignment {
        let mut a = self.clone();
        a.set(v, true);
        a
    }

    /// Returns a copy with `v` set to 0.
    pub fn without(&self, v: Var) -> Assignment {
        let mut a = self.clone();
        a.set(v, false);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut a = Assignment::empty();
        assert!(!a.get(Var(1)));
        a.set(Var(1), true);
        a.set(Var(2), true);
        a.set(Var(1), false);
        assert!(!a.get(Var(1)));
        assert!(a.get(Var(2)));
        assert_eq!(a.weight(), 1);
    }

    #[test]
    fn with_without() {
        let a = Assignment::from_true_vars([Var(1), Var(3)]);
        assert_eq!(a.with(Var(2)).weight(), 3);
        assert_eq!(a.without(Var(3)).weight(), 1);
        // Originals untouched.
        assert_eq!(a.weight(), 2);
    }
}
