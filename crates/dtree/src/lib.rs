//! Decomposition trees (d-trees) for positive DNF lineage.
//!
//! A *d-tree* (Def. 8 of the paper, originally from the anytime approximation
//! framework for probabilistic databases) represents a Boolean function as a
//! tree whose inner nodes are logical connectives annotated with structural
//! information:
//!
//! * `⊗` — disjunction of *independent* children (disjoint variable sets),
//! * `⊙` — conjunction of *independent* children,
//! * `⊕` — disjunction of *mutually exclusive* children over the same
//!   variables (produced by Shannon expansion).
//!
//! Leaves are positive DNF functions; a d-tree is *complete* when every leaf
//! is a constant or a literal. `ExaBan` requires a complete d-tree, while
//! `AdaBan` interleaves partial compilation with bound computation, so the
//! compiler here exposes both a one-shot [`DTree::compile_full`] and an
//! incremental [`DTree::expand_leaf`] / [`DTree::expand_largest_leaf`] API.
//!
//! Both run one decomposition step over a *dense* leaf: the function's
//! variables are mapped monotonically onto `0..n` and every clause becomes a
//! row of `⌈n/64⌉` bitset words, so factoring is an AND of the rows, the
//! independence split a union-find over dense variables, and the Shannon
//! pivot a column popcount. Full compilation keeps its pending leaves dense
//! and never builds an intermediate [`banzhaf_boolean::Dnf`].
//!
//! The compiled tree is a compact arena of 16-byte [`Node`]s: constant and
//! literal leaves own no heap memory, inner nodes name a run of one flat
//! child list, and only the leaves a partial tree still has to expand box
//! their DNF. A child's id is always larger than its parent's, so passes walk
//! the arena in id order, and the tree stores its function's universe once
//! ([`DTree::universe`]) for passes that report a value per variable.
//!
//! # Example
//!
//! ```
//! use banzhaf_boolean::{Dnf, Var};
//! use banzhaf_dtree::{Budget, DTree, PivotHeuristic};
//!
//! // Example 9 of the paper: (x ∧ y) ∨ (x ∧ z).
//! let phi = Dnf::from_clauses(vec![vec![Var(0), Var(1)], vec![Var(0), Var(2)]]);
//! let tree = DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
//! assert!(tree.is_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod compile;
mod dense;
mod node;
mod partition;
mod tree;

pub use budget::{Budget, Interrupted};
pub use compile::PivotHeuristic;
pub use node::{Node, NodeId, OpKind, Span};
pub use tree::{DTree, DTreeStats};
