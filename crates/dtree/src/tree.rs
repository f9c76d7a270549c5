//! The d-tree arena.
//!
//! A [`DTree`] keeps its nodes in one `Vec<Node>` of 16-byte slots.
//! Expansion replaces a leaf in place and appends its children in one run,
//! so a [`Node::Op`] names its children as a [`Span`] of consecutive ids and
//! a child always has a larger id than its parent: ascending id order visits
//! parents before children and descending id order visits children before
//! parents, which is all the bottom-up and top-down passes need — no child
//! list, traversal stack or order vector.
//!
//! The tree also stores the universe of the function it represents once
//! ([`DTree::universe`]). Constant leaves keep only their variable count, so
//! passes that report a value for every variable seed their entries from the
//! universe, and the leaves still awaiting decomposition are tracked in a
//! side list, so incremental callers never rescan the arena to find them.

use crate::node::Span;
use crate::{Node, NodeId, OpKind};
use banzhaf_boolean::{Dnf, VarSet};

/// The content of a slot whose node an expansion step is about to write.
pub(crate) const PLACEHOLDER: Node = Node::Const { value: false, num_vars: 0 };

/// A (possibly partial) decomposition tree for a positive DNF function.
///
/// Nodes live in an arena indexed by [`NodeId`]; incremental expansion
/// replaces a leaf node in place with an inner node whose children are
/// appended to the arena, so node ids stay stable across expansions — which is
/// what lets `AdaBan` reuse the partial d-tree built while approximating one
/// variable when it moves on to the next variable (optimization (3) of
/// Sec. 3.2.4).
#[derive(Clone, Debug)]
pub struct DTree {
    nodes: Vec<Node>,
    universe: VarSet,
    /// The [`Node::Leaf`] ids, in no particular order.
    pending: Vec<NodeId>,
    root: NodeId,
    expansions: u64,
}

impl DTree {
    /// Creates the trivial d-tree whose single leaf is the whole function.
    pub fn from_leaf(phi: Dnf) -> Self {
        let mut tree = DTree::empty(phi.universe().clone());
        match Node::trivial(&phi) {
            Some(node) => {
                tree.push(node);
            }
            None => tree.push_pending(phi),
        }
        tree
    }

    /// A tree over `universe` with no nodes yet; the first node pushed is
    /// the root.
    pub(crate) fn empty(universe: VarSet) -> Self {
        DTree { nodes: Vec::new(), universe, pending: Vec::new(), root: NodeId(0), expansions: 0 }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The children of node `id` (empty for leaves).
    pub fn children(&self, id: NodeId) -> Span {
        match self.node(id) {
            Node::Op { children, .. } => *children,
            _ => Span::new(id, 0),
        }
    }

    /// The universe of the represented function, in ascending order.
    pub fn universe(&self) -> &VarSet {
        &self.universe
    }

    /// Number of nodes in the arena.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf-expansion steps performed so far.
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    pub(crate) fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Appends a leaf awaiting decomposition.
    pub(crate) fn push_pending(&mut self, phi: Dnf) {
        let id = self.push(Node::Leaf(Box::new(phi)));
        self.pending.push(id);
    }

    /// Turns the leaf in slot `id` into a pending [`Node::Leaf`].
    pub(crate) fn set_pending(&mut self, id: NodeId, phi: Dnf) {
        self.nodes[id.index()] = Node::Leaf(Box::new(phi));
        self.pending.push(id);
    }

    /// Makes `id` an inner node over `children`, which follow it.
    pub(crate) fn set_op(&mut self, id: NodeId, op: OpKind, num_vars: u32, children: Span) {
        debug_assert!(children.ids().all(|c| c > id), "children follow their parent");
        self.nodes[id.index()] = Node::Op { op, num_vars, children };
    }

    /// Moves the pending leaf `id` out of the arena, leaving a placeholder
    /// the expansion overwrites.
    ///
    /// # Panics
    /// Panics if `id` is not a pending leaf.
    pub(crate) fn take_pending(&mut self, id: NodeId) -> Dnf {
        let slot = std::mem::replace(&mut self.nodes[id.index()], PLACEHOLDER);
        let Node::Leaf(phi) = slot else {
            panic!("expand_leaf called on a trivial leaf or inner node {slot:?}");
        };
        let at = self.pending.iter().position(|&p| p == id).expect("leaves are tracked");
        self.pending.swap_remove(at);
        *phi
    }

    /// Releases the arena's spare capacity once the tree stops growing.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
    }

    pub(crate) fn bump_expansions(&mut self) {
        self.expansions += 1;
    }

    /// Ids of all leaves that are neither constants nor literals, in
    /// ascending order; these are the candidates for further decomposition.
    pub fn non_trivial_leaves(&self) -> Vec<NodeId> {
        let mut ids = self.pending.clone();
        ids.sort_unstable();
        ids
    }

    /// The non-trivial leaf whose DNF has the largest size, if any (ties go to
    /// the larger clause count, then to the larger id).
    ///
    /// `AdaBan` expands this leaf next: the largest leaf is the one whose
    /// iDNF bounds are typically loosest, so decomposing it tightens the
    /// overall approximation interval the most.
    pub fn largest_non_trivial_leaf(&self) -> Option<NodeId> {
        self.pending.iter().copied().max_by_key(|&id| match self.node(id) {
            Node::Leaf(dnf) => (dnf.size(), dnf.num_clauses(), id),
            _ => unreachable!("pending ids are leaves"),
        })
    }

    /// `true` iff the d-tree is complete: every leaf is a constant or a
    /// literal.
    pub fn is_complete(&self) -> bool {
        self.pending.is_empty()
    }

    /// Renders the tree as an indented multi-line string (for debugging and
    /// the examples).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut stack: Vec<(NodeId, usize)> = vec![(self.root, 0)];
        while let Some((id, depth)) = stack.pop() {
            let indent = "  ".repeat(depth);
            match self.node(id) {
                Node::Leaf(dnf) => writeln!(out, "{indent}leaf {dnf}").expect("string write"),
                Node::Const { value, num_vars } => {
                    let c = if *value { "⊤" } else { "⊥" };
                    writeln!(out, "{indent}{c}[{num_vars} vars]").expect("string write");
                }
                Node::PosLit(v) => writeln!(out, "{indent}{v}").expect("string write"),
                Node::NegLit(v) => writeln!(out, "{indent}¬{v}").expect("string write"),
                Node::Op { op, num_vars, children } => {
                    writeln!(out, "{indent}{op} [{num_vars} vars]").expect("string write");
                    stack.extend(children.ids().rev().map(|c| (c, depth + 1)));
                }
            }
        }
        out
    }

    /// Total number of variables of the represented function.
    pub fn num_vars(&self) -> usize {
        self.universe.len()
    }

    /// Statistics about the current shape of the tree.
    pub fn stats(&self) -> DTreeStats {
        let mut stats = DTreeStats::default();
        for node in &self.nodes {
            match node {
                Node::Leaf(dnf) => {
                    stats.leaves += 1;
                    stats.pending_leaf_size += dnf.size();
                }
                Node::Const { .. } | Node::PosLit(_) | Node::NegLit(_) => {
                    stats.leaves += 1;
                    stats.trivial_leaves += 1;
                }
                Node::Op { op, .. } => match op {
                    OpKind::IndependentOr => stats.independent_or += 1,
                    OpKind::IndependentAnd => stats.independent_and += 1,
                    OpKind::Exclusive => stats.exclusive += 1,
                },
            }
        }
        stats.expansions = self.expansions;
        stats
    }
}

/// Shape statistics of a d-tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DTreeStats {
    /// Number of leaf nodes (trivial or not).
    pub leaves: usize,
    /// Number of leaves that are constants or literals.
    pub trivial_leaves: usize,
    /// Total DNF size of the leaves still awaiting decomposition.
    pub pending_leaf_size: usize,
    /// Number of `⊗` nodes.
    pub independent_or: usize,
    /// Number of `⊙` nodes.
    pub independent_and: usize,
    /// Number of `⊕` (Shannon) nodes.
    pub exclusive: usize,
    /// Number of expansion steps performed.
    pub expansions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Budget, PivotHeuristic};
    use banzhaf_boolean::Var;

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn from_leaf_basics() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)]]);
        let t = DTree::from_leaf(phi);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_vars(), 3);
        assert!(!t.is_complete());
        assert_eq!(t.non_trivial_leaves(), vec![NodeId(0)]);
        assert_eq!(t.largest_non_trivial_leaf(), Some(NodeId(0)));
    }

    #[test]
    fn trivial_leaf_is_complete() {
        assert!(DTree::from_leaf(Dnf::variable(v(0))).is_complete());
        assert!(
            DTree::from_leaf(Dnf::constant_false(banzhaf_boolean::VarSet::default())).is_complete()
        );
    }

    #[test]
    fn traversal_orders_cover_all_nodes() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(2), v(3)]]);
        let t =
            DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        // Every node but the root is the child of exactly one node, which
        // precedes it: ascending ids visit parents first and descending ids
        // children first.
        let mut parents = vec![0; t.num_nodes()];
        for i in 0..t.num_nodes() {
            let id = NodeId(i as u32);
            for c in t.children(id).ids() {
                assert!(c > id);
                parents[c.index()] += 1;
            }
        }
        assert_eq!(parents[0], 0);
        assert!(parents[1..].iter().all(|&p| p == 1));
    }

    #[test]
    fn stats_and_render() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)]]);
        let t =
            DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        let s = t.stats();
        assert!(s.leaves >= 2);
        assert_eq!(s.leaves, s.trivial_leaves);
        assert!(s.independent_and >= 1);
        let rendered = t.render();
        assert!(rendered.contains("⊙") || rendered.contains("⊗"));
        assert_eq!(t.universe().as_slice(), &[v(0), v(1), v(2)]);
    }
}
