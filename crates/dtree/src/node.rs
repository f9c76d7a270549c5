//! D-tree nodes: a compact, 16-byte arena slot.
//!
//! Compiled trees hold hundreds of thousands of nodes, so a node owns no heap
//! memory unless it is a leaf still awaiting decomposition:
//!
//! * trivial leaves are [`Node::Const`] (a constant over a variable count) and
//!   [`Node::PosLit`] / [`Node::NegLit`] (a literal over one variable);
//! * inner nodes ([`Node::Op`]) name their children as a [`Span`] of
//!   consecutive node ids, so the tree stores no child list;
//! * only [`Node::Leaf`] — a non-trivial positive DNF, found in partial trees
//!   built by incremental expansion — boxes its function.

use banzhaf_boolean::{Dnf, Var};
use std::fmt;

/// Index of a node within a [`crate::DTree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The connective of an inner d-tree node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum OpKind {
    /// `⊗` — disjunction of independent children.
    IndependentOr,
    /// `⊙` — conjunction of independent children.
    IndependentAnd,
    /// `⊕` — disjunction of mutually exclusive children over the same
    /// variables (Shannon expansion).
    Exclusive,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::IndependentOr => "⊗",
            OpKind::IndependentAnd => "⊙",
            OpKind::Exclusive => "⊕",
        };
        write!(f, "{s}")
    }
}

/// The children of an inner node: `len` consecutive node ids from `first`.
///
/// An expansion step appends all children of the node it creates in one
/// run, so no child list is stored.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    first: u32,
    len: u32,
}

impl Span {
    pub(crate) fn new(first: NodeId, len: usize) -> Self {
        Span { first: first.0, len: len as u32 }
    }

    /// Number of children.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` iff there are no children (the span of a leaf).
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The `i`-th child.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn get(self, i: usize) -> NodeId {
        assert!(i < self.len(), "child {i} of a {}-child span", self.len);
        NodeId(self.first + i as u32)
    }

    /// The children, in order.
    pub fn ids(self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (self.first..self.first + self.len).map(NodeId)
    }
}

/// A node of a d-tree.
#[derive(Clone, Debug)]
pub enum Node {
    /// A leaf still awaiting decomposition: a positive DNF over its own
    /// universe that is neither a constant nor a single literal.
    Leaf(Box<Dnf>),
    /// The constant `value` over `num_vars` variables (for instance the
    /// unused-variable component of an independent split).
    Const {
        /// The constant.
        value: bool,
        /// Number of variables of the function.
        num_vars: u32,
    },
    /// A positive literal `x` (a function over the single variable `x`).
    PosLit(Var),
    /// A negated literal `¬x`, introduced by Shannon expansion.
    NegLit(Var),
    /// An inner node: a connective applied to children with the stated total
    /// number of variables.
    Op {
        /// The connective.
        op: OpKind,
        /// Number of variables of the function represented by this subtree.
        num_vars: u32,
        /// The children.
        children: Span,
    },
}

const _: () = assert!(std::mem::size_of::<Node>() <= 16);

impl Node {
    /// Number of variables of the function represented by this node.
    pub fn num_vars(&self) -> usize {
        match self {
            Node::Leaf(dnf) => dnf.num_vars(),
            Node::Const { num_vars, .. } | Node::Op { num_vars, .. } => *num_vars as usize,
            Node::PosLit(_) | Node::NegLit(_) => 1,
        }
    }

    /// `true` iff this is a leaf that still needs decomposition before the
    /// d-tree is complete (neither a constant nor a single literal).
    pub fn is_non_trivial_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }

    /// `true` iff this node is any kind of leaf (no children).
    pub fn is_leaf(&self) -> bool {
        !matches!(self, Node::Op { .. })
    }

    /// The trivial node for `dnf` (a constant or a single literal), or
    /// `None` if `dnf` still needs decomposition.
    pub(crate) fn trivial(dnf: &Dnf) -> Option<Node> {
        if dnf.is_constant() {
            Some(Node::Const { value: dnf.is_true(), num_vars: dnf.num_vars() as u32 })
        } else {
            dnf.is_single_literal().map(Node::PosLit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banzhaf_boolean::VarSet;

    #[test]
    fn node_is_sixteen_bytes() {
        assert!(std::mem::size_of::<Node>() <= 16);
    }

    #[test]
    fn num_vars_per_kind() {
        assert_eq!(Node::PosLit(Var(3)).num_vars(), 1);
        assert_eq!(Node::NegLit(Var(3)).num_vars(), 1);
        assert_eq!(Node::Const { value: true, num_vars: 4 }.num_vars(), 4);
        let leaf = Node::Leaf(Box::new(Dnf::from_clauses(vec![vec![Var(0), Var(1)]])));
        assert_eq!(leaf.num_vars(), 2);
        let op =
            Node::Op { op: OpKind::IndependentOr, num_vars: 7, children: Span::new(NodeId(1), 2) };
        assert_eq!(op.num_vars(), 7);
    }

    #[test]
    fn triviality() {
        assert!(!Node::PosLit(Var(0)).is_non_trivial_leaf());
        assert!(matches!(Node::trivial(&Dnf::variable(Var(0))), Some(Node::PosLit(Var(0)))));
        assert!(matches!(
            Node::trivial(&Dnf::constant_true(VarSet::from_iter([Var(0), Var(1)]))),
            Some(Node::Const { value: true, num_vars: 2 })
        ));
        assert!(Node::trivial(&Dnf::from_clauses(vec![vec![Var(0), Var(1)]])).is_none());
        assert!(Node::Leaf(Box::new(Dnf::from_clauses(vec![vec![Var(0), Var(1)]])))
            .is_non_trivial_leaf());
        assert!(Node::PosLit(Var(0)).is_leaf());
        let op = Node::Op { op: OpKind::Exclusive, num_vars: 0, children: Span::new(NodeId(1), 2) };
        assert!(!op.is_leaf());
    }
}
