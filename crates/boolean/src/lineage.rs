//! One borrowed view over both kinds of lineage an attribution runs on.

use crate::{AggregateKind, Dnf, VarSet, WeightedDnf};

/// A borrowed lineage to attribute: the Boolean lineage of a query answer, or
/// the weighted lineage of an aggregate (COUNT/SUM/MIN/MAX) answer.
///
/// Every attribution entry point takes this one type, so a Boolean and an
/// aggregate answer travel the same path from the sampler to the session.
///
/// ```
/// use banzhaf_boolean::{AsLineage, Dnf, Lineage, Var};
///
/// let phi = Dnf::from_clauses(vec![vec![Var(0), Var(1)]]);
/// let lineage = phi.as_lineage();
/// assert!(matches!(lineage, Lineage::Boolean(_)));
/// assert_eq!(lineage.aggregate_kind(), None);
/// assert_eq!(lineage.universe().len(), 2);
/// ```
#[derive(Clone, Copy, Debug)]
pub enum Lineage<'a> {
    /// A positive DNF: its facts get Banzhaf values.
    Boolean(&'a Dnf),
    /// A weighted DNF: its facts get aggregate Banzhaf values under the
    /// lineage's [`AggregateKind`].
    Aggregate(&'a WeightedDnf),
}

impl<'a> Lineage<'a> {
    /// The Boolean skeleton: the lineage itself, or the weighted lineage's
    /// clauses with their weights forgotten.
    pub fn dnf(self) -> &'a Dnf {
        match self {
            Lineage::Boolean(phi) => phi,
            Lineage::Aggregate(w) => w.dnf(),
        }
    }

    /// The facts the lineage is defined over.
    pub fn universe(self) -> &'a VarSet {
        self.dnf().universe()
    }

    /// The aggregate kind of an aggregate lineage, `None` for a Boolean one.
    pub fn aggregate_kind(self) -> Option<AggregateKind> {
        match self {
            Lineage::Boolean(_) => None,
            Lineage::Aggregate(w) => Some(w.kind()),
        }
    }
}

/// A value that can be viewed as a [`Lineage`]: a [`Dnf`], a
/// [`WeightedDnf`], or a reference to either.
pub trait AsLineage {
    /// The borrowed lineage view.
    fn as_lineage(&self) -> Lineage<'_>;
}

impl AsLineage for Dnf {
    fn as_lineage(&self) -> Lineage<'_> {
        Lineage::Boolean(self)
    }
}

impl AsLineage for WeightedDnf {
    fn as_lineage(&self) -> Lineage<'_> {
        Lineage::Aggregate(self)
    }
}

impl<T: AsLineage> AsLineage for &T {
    fn as_lineage(&self) -> Lineage<'_> {
        (**self).as_lineage()
    }
}
